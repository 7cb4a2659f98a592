package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// ProgressSchema identifies the sweep-progress line layout.
const ProgressSchema = "fibersim/sweep-progress/v1"

// SweepProgress is one machine-readable progress line: fibersweep
// emits one JSON object per completed configuration (on stderr under
// -progress), and fiberd's /runs/live endpoint relays them as
// server-sent events, so scripts and dashboards can tail a sweep
// without parsing the human table.
type SweepProgress struct {
	Schema   string `json:"schema"`
	App      string `json:"app"`
	Machine  string `json:"machine"`
	Procs    int    `json:"procs"`
	Threads  int    `json:"threads"`
	Compiler string `json:"compiler"`
	Size     string `json:"size"`
	// Done/Total count completed configurations against the sweep plan.
	Done  int `json:"done"`
	Total int `json:"total"`
	// TimeSeconds/GFlops/Verified carry the result of a fresh run; a
	// replayed (resumed) row has Resumed set and no numbers, a failed
	// run has Err set.
	TimeSeconds float64 `json:"time_seconds,omitempty"`
	GFlops      float64 `json:"gflops,omitempty"`
	Verified    bool    `json:"verified,omitempty"`
	Resumed     bool    `json:"resumed,omitempty"`
	Err         string  `json:"error,omitempty"`
	// WallSeconds/HeapPeakBytes carry self-observability readings when
	// the sweep runs under -selfprofile: the cell's measured elapsed
	// time (its self-profile's elapsed_seconds) and its self-profile's
	// heap_peak_bytes, which is the process's heap peak so far, not
	// the cell's own.
	WallSeconds   float64 `json:"wall_seconds,omitempty"`
	HeapPeakBytes uint64  `json:"heap_peak_bytes,omitempty"`
}

// Validate checks the invariants consumers rely on.
func (p *SweepProgress) Validate() error {
	if p.Schema != ProgressSchema {
		return fmt.Errorf("obs: progress schema %q, want %q", p.Schema, ProgressSchema)
	}
	if p.App == "" {
		return fmt.Errorf("obs: progress line has no app")
	}
	if p.Done < 0 || p.Total < 0 || (p.Total > 0 && p.Done > p.Total) {
		return fmt.Errorf("obs: progress %d/%d out of range", p.Done, p.Total)
	}
	if math.IsNaN(p.TimeSeconds) || math.IsInf(p.TimeSeconds, 0) || p.TimeSeconds < 0 {
		return fmt.Errorf("obs: progress time %g invalid", p.TimeSeconds)
	}
	if math.IsNaN(p.WallSeconds) || math.IsInf(p.WallSeconds, 0) || p.WallSeconds < 0 {
		return fmt.Errorf("obs: progress wall time %g invalid", p.WallSeconds)
	}
	return nil
}

// Encode writes the progress as one JSON line (no indentation — the
// stream is line-delimited).
func (p *SweepProgress) Encode(w io.Writer) error {
	if err := p.Validate(); err != nil {
		return err
	}
	b, err := json.Marshal(p)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// ParseProgress decodes and validates one progress line.
func ParseProgress(line []byte) (*SweepProgress, error) {
	var p SweepProgress
	if err := json.Unmarshal(line, &p); err != nil {
		return nil, fmt.Errorf("obs: progress decode: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}
