package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// SelfProfileSchema identifies the self-profile document layout; bump
// on any incompatible change so downstream tooling can dispatch.
const SelfProfileSchema = "fibersim/self-profile/v2"

// CostRecorder measures what one section of the simulator process
// costs the host: elapsed wall time, heap allocations and GC activity
// between Start and Finish, and the process's heap peak at Finish.
// Start, Finish and Profile belong to the single owning goroutine. All
// methods are no-ops on a nil receiver, so a disabled recorder costs
// nothing.
//
// Time comes from the injected clock only — model code never reads the
// wall clock directly (the nondet lint rule enforces this).
type CostRecorder struct {
	now func() time.Time

	begin, end time.Time
	base, last runtime.MemStats
	finished   bool
}

// NewCostRecorder returns a recorder reading the given clock. A nil
// clock returns a nil recorder: the disabled, zero-cost form.
func NewCostRecorder(now func() time.Time) *CostRecorder {
	if now == nil {
		return nil
	}
	return &CostRecorder{now: now}
}

// Start captures the allocation baseline and opens the measured
// section. Call once, before the work.
func (c *CostRecorder) Start() {
	if c == nil {
		return
	}
	runtime.ReadMemStats(&c.base)
	c.begin = c.now()
}

// Finish closes the measured section, capturing the final allocation
// counters. Call once, after the work.
func (c *CostRecorder) Finish() {
	if c == nil || c.finished {
		return
	}
	c.end = c.now()
	runtime.ReadMemStats(&c.last)
	c.finished = true
}

// Profile folds the recorder into a SelfProfile artifact. Call after
// Finish: an unfinished or nil recorder folds with zero elapsed time
// and allocation deltas.
func (c *CostRecorder) Profile(label string) *SelfProfile {
	p := &SelfProfile{Schema: SelfProfileSchema, Label: label}
	if c == nil {
		return p
	}
	if c.finished {
		p.ElapsedSeconds = c.end.Sub(c.begin).Seconds()
		p.AllocBytes = c.last.TotalAlloc - c.base.TotalAlloc
		p.Allocs = c.last.Mallocs - c.base.Mallocs
		p.GCCycles = int64(c.last.NumGC) - int64(c.base.NumGC)
		p.GCPauseSeconds = time.Duration(c.last.PauseTotalNs - c.base.PauseTotalNs).Seconds()
		p.HeapPeakBytes = c.last.HeapSys
	}
	p.Goroutines = runtime.NumGoroutine()
	return p
}

// SelfProfile is the validated record of what one run (or sweep cell)
// of the simulator cost the host, as measured between CostRecorder's
// Start and Finish: elapsed wall time, allocation volume, GC pressure.
type SelfProfile struct {
	Schema string `json:"schema"`
	// Label names the measured workload ("stream", "sweep", ...).
	Label string `json:"label,omitempty"`
	// ElapsedSeconds is the begin-to-end wall time of the measured
	// section (zero until the recorder is finished).
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// AllocBytes/Allocs are heap allocation deltas over the section.
	AllocBytes uint64 `json:"alloc_bytes"`
	Allocs     uint64 `json:"allocs"`
	// HeapPeakBytes is the runtime's HeapSys at Finish, which it
	// documents as an estimate of the largest size the heap has had:
	// the process's peak so far, garbage included, not the section's
	// (0 = unfinished).
	HeapPeakBytes uint64 `json:"heap_peak_bytes,omitempty"`
	// GCCycles/GCPauseSeconds are GC deltas over the section.
	GCCycles       int64   `json:"gc_cycles"`
	GCPauseSeconds float64 `json:"gc_pause_seconds"`
	// Goroutines is the live goroutine count at fold time.
	Goroutines int `json:"goroutines,omitempty"`
	// CPUProfile/HeapProfile point at optional pprof captures.
	CPUProfile  string `json:"cpu_profile,omitempty"`
	HeapProfile string `json:"heap_profile,omitempty"`
}

// Validate checks the structural invariants downstream tooling relies
// on: schema identity and finite, non-negative measurements.
func (p *SelfProfile) Validate() error {
	if p.Schema != SelfProfileSchema {
		return fmt.Errorf("obs: self-profile schema %q, want %q", p.Schema, SelfProfileSchema)
	}
	// An ordered slice, not a map: which invalid field the error names
	// must not depend on iteration order.
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"elapsed_seconds", p.ElapsedSeconds},
		{"gc_pause_seconds", p.GCPauseSeconds},
	} {
		if c.v < 0 || math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return fmt.Errorf("obs: self-profile %s=%g invalid", c.name, c.v)
		}
	}
	if p.GCCycles < 0 {
		return fmt.Errorf("obs: self-profile gc_cycles %d negative", p.GCCycles)
	}
	return nil
}

// Encode validates and writes the profile as indented JSON.
func (p *SelfProfile) Encode(w io.Writer) error {
	if err := p.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// WriteFile writes the profile to path.
func (p *SelfProfile) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.Encode(f); err != nil {
		_ = f.Close() // the encode error is the one worth reporting
		return err
	}
	return f.Close()
}

// ParseSelfProfile decodes and validates one self-profile document.
func ParseSelfProfile(r io.Reader) (*SelfProfile, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p SelfProfile
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("obs: self-profile decode: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// ReadSelfProfileFile parses the self-profile at path.
func ReadSelfProfileFile(path string) (*SelfProfile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseSelfProfile(f)
}

// WriteReport renders the profile as one human-readable line.
func (p *SelfProfile) WriteReport(w io.Writer) error {
	_, err := fmt.Fprintf(w, "self-profile %s: elapsed %.3fs allocs %d (%.1f MiB) gc %d cycles (%.3fms paused) heap peak %.1f MiB\n",
		p.Label, p.ElapsedSeconds, p.Allocs, float64(p.AllocBytes)/(1<<20),
		p.GCCycles, p.GCPauseSeconds*1e3, float64(p.HeapPeakBytes)/(1<<20))
	return err
}

// StartCPUProfile begins a pprof CPU capture to path, returning the
// stop function. Callers must invoke stop before reading the file.
func StartCPUProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		_ = f.Close()
	}, nil
}

// WriteHeapProfile writes a pprof heap capture to path.
func WriteHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle the heap so the profile reflects live objects
	if err := pprof.WriteHeapProfile(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
