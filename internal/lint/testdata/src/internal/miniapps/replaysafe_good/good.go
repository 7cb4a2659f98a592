// Package fixture is the replaysafe negative fixture: nothing here
// depends on the model config.
package fixture

import (
	"fibersim/internal/arch"
	"fibersim/internal/core"
	"fibersim/internal/miniapps/common"
	"fibersim/internal/omp"
)

// timedPhase times its region with a span, which a replay re-times.
func timedPhase(env *common.Env) {
	env.BeginSpan("phase")
	env.Team.ParallelRange(omp.Schedule{}, 8, func(_, lo, hi int) {}, nil)
	env.EndSpan("phase")
}

// functionalInputs reads only what the numerics may depend on.
func functionalInputs(cfg common.RunConfig) int {
	return cfg.Procs*cfg.Threads + int(cfg.Size) + int(cfg.Seed)
}

// nested builds and edits a config: writes are not reads.
func nested(m *arch.Machine) common.RunConfig {
	cfg := common.RunConfig{Machine: m, NodeStride: 2}
	cfg.Compiler = core.Tuned()
	cfg.NodeStride = 4
	return cfg
}

type stopwatch struct{}

func (stopwatch) Clock() float64 { return 0 }

// otherClock calls a Clock method that is not the virtual clock.
func otherClock() float64 { return stopwatch{}.Clock() }
