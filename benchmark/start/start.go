// Package start records when the benchmark process began running Go
// code. It imports nothing from fibersim, and its import path sorts
// before fibersim/internal/..., so Go initialises it before any package
// of the simulator: work a change moves into package initialisation
// lands between Time and the first timed cell, where setup_s sees it.
package start

import "time"

// Time is taken during package initialisation.
var Time = time.Now()
