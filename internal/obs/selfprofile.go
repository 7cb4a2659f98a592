package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"time"
)

// SelfProfileSchema identifies the self-profile document layout; bump
// on any incompatible change so downstream tooling can dispatch.
const SelfProfileSchema = "fibersim/self-profile/v1"

// Stage enumerates the simulator's own cost centers: where the real
// process spends real wall-clock time while computing virtual time.
// The set is fixed so profiles from different runs line up column for
// column.
type Stage int

const (
	// StageSetup covers machine/app construction, placement and fabric
	// wiring before ranks start.
	StageSetup Stage = iota
	// StageCharge covers the Env.Charge kernel-model hot path.
	StageCharge
	// StageCollective covers collective rendezvous host work: entry,
	// validation, combine and cost evaluation. It is not waiting: the
	// virtual-clock sync loop counts as vtime-advance, and the time a
	// rank spends parked until it retakes a run slot counts nowhere.
	StageCollective
	// StageVtimeAdvance covers virtual-clock AdvanceTo work on both the
	// point-to-point receive path and the collective sync loop.
	StageVtimeAdvance
	// StageJournal covers durable state writes (sweep journal fsyncs).
	StageJournal
	// StageRender covers artifact emission: manifests, tables, reports.
	StageRender
	stageCount
)

var stageNames = [stageCount]string{
	"setup", "charge", "collective", "vtime-advance", "journal", "render",
}

func (s Stage) String() string {
	if s < 0 || s >= stageCount {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return stageNames[s]
}

// StageNames lists every stage name in canonical (enum) order.
func StageNames() []string {
	return append([]string(nil), stageNames[:]...)
}

// CostRecorder accumulates per-stage wall-clock cost of the simulator
// process itself. Stage accounting is lock-free (per-stage atomics) so
// every rank goroutine can report concurrently; Start/Finish/Profile
// belong to the single owning goroutine. All methods are no-ops on a
// nil receiver, so a disabled recorder costs nothing on the hot paths.
//
// Time comes from the injected clock only — model code never reads the
// wall clock directly (the nondet lint rule enforces this).
type CostRecorder struct {
	now   func() time.Time
	ns    [stageCount]atomic.Int64
	calls [stageCount]atomic.Int64

	heapPeak atomic.Uint64

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

// Enabled reports whether the recorder is collecting (non-nil).
func (c *CostRecorder) Enabled() bool { return c != nil }

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
	runtime.ReadMemStats(&c.last)
	c.end = c.now()
	c.finished = true
}

// Begin returns the stage-timing start point (the zero time when
// disabled, which End treats as a no-op).
func (c *CostRecorder) Begin() time.Time {
	if c == nil {
		return time.Time{}
	}
	return c.now()
}

// End charges the elapsed time since start to stage and returns the
// charged duration. A zero start (from a nil recorder's Begin) records
// nothing.
func (c *CostRecorder) End(stage Stage, start time.Time) time.Duration {
	if c == nil || start.IsZero() {
		return 0
	}
	d := c.now().Sub(start)
	c.Add(stage, d)
	return d
}

// EndExcluding charges the elapsed time since start minus exclude to
// stage — the idiom for a section whose inner span is charged to a
// different stage (collective rendezvous around the clock-sync loop).
func (c *CostRecorder) EndExcluding(stage Stage, start time.Time, exclude time.Duration) {
	if c == nil || start.IsZero() {
		return
	}
	c.Add(stage, c.now().Sub(start)-exclude)
}

// Add charges d to stage directly; negative durations clamp to zero so
// a stepping test clock cannot drive a stage negative.
func (c *CostRecorder) Add(stage Stage, d time.Duration) {
	if c == nil || stage < 0 || stage >= stageCount {
		return
	}
	if d < 0 {
		d = 0
	}
	c.ns[stage].Add(int64(d))
	c.calls[stage].Add(1)
}

// SnapshotHeap samples the live heap and keeps the high-water mark.
// Callers sprinkle it at cell boundaries; it is safe from any
// goroutine.
func (c *CostRecorder) SnapshotHeap() {
	if c == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for {
		old := c.heapPeak.Load()
		if ms.HeapAlloc <= old || c.heapPeak.CompareAndSwap(old, ms.HeapAlloc) {
			return
		}
	}
}

// HeapPeakBytes returns the high-water live-heap mark seen by
// SnapshotHeap (zero if never sampled).
func (c *CostRecorder) HeapPeakBytes() uint64 {
	if c == nil {
		return 0
	}
	return c.heapPeak.Load()
}

// StageSeconds returns the accumulated wall time of one stage.
func (c *CostRecorder) StageSeconds(stage Stage) float64 {
	if c == nil || stage < 0 || stage >= stageCount {
		return 0
	}
	return time.Duration(c.ns[stage].Load()).Seconds()
}

// WallSeconds sums the accumulated stage times (goroutine-seconds:
// concurrent ranks add up, so this can exceed elapsed time).
func (c *CostRecorder) WallSeconds() float64 {
	if c == nil {
		return 0
	}
	var t float64
	for s := Stage(0); s < stageCount; s++ {
		t += c.StageSeconds(s)
	}
	return t
}

// Profile folds the recorder into a SelfProfile artifact. Call after
// Finish (an unfinished recorder folds with zero allocation deltas and
// elapsed time).
func (c *CostRecorder) Profile(label string) *SelfProfile {
	p := &SelfProfile{Schema: SelfProfileSchema, Label: label}
	if c == nil {
		// A disabled recorder still folds into a complete (all-zero)
		// profile so every consumer sees the canonical stage set.
		for s := Stage(0); s < stageCount; s++ {
			p.Stages = append(p.Stages, StageCost{Stage: s.String()})
		}
		return p
	}
	var wall float64
	for s := Stage(0); s < stageCount; s++ {
		sec := c.StageSeconds(s)
		wall += sec
		p.Stages = append(p.Stages, StageCost{
			Stage:   s.String(),
			Seconds: sec,
			Calls:   c.calls[s].Load(),
		})
	}
	p.WallSeconds = wall
	if c.finished {
		p.ElapsedSeconds = c.end.Sub(c.begin).Seconds()
		p.AllocBytes = c.last.TotalAlloc - c.base.TotalAlloc
		p.Allocs = c.last.Mallocs - c.base.Mallocs
		p.GCCycles = int64(c.last.NumGC) - int64(c.base.NumGC)
		p.GCPauseSeconds = time.Duration(c.last.PauseTotalNs - c.base.PauseTotalNs).Seconds()
	}
	p.HeapPeakBytes = c.heapPeak.Load()
	p.Goroutines = runtime.NumGoroutine()
	return p
}

// StageCost is one stage's accumulated wall cost.
type StageCost struct {
	Stage   string  `json:"stage"`
	Seconds float64 `json:"seconds"`
	Calls   int64   `json:"calls"`
}

// SelfProfile is the validated record of what one run (or sweep) of
// the simulator cost the host: per-stage wall time, allocation volume,
// GC pressure. It is the pre-optimization baseline the ROADMAP's
// zero-alloc hot-path work must beat.
type SelfProfile struct {
	Schema string `json:"schema"`
	// Label names the measured workload ("stream", "sweep", ...).
	Label string `json:"label,omitempty"`
	// WallSeconds is the sum of the stage times below — goroutine
	// wall-seconds, so concurrent ranks add up.
	WallSeconds float64 `json:"wall_seconds"`
	// ElapsedSeconds is the begin-to-end wall time of the measured
	// section (zero until the recorder is finished).
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// Stages holds one entry per cost center, in canonical order.
	Stages []StageCost `json:"stages"`
	// AllocBytes/Allocs are heap allocation deltas over the section.
	AllocBytes uint64 `json:"alloc_bytes"`
	Allocs     uint64 `json:"allocs"`
	// HeapPeakBytes is the live-heap high-water mark (0 = unsampled).
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
// on: schema identity, the canonical stage set, finite non-negative
// numbers, and stage times that sum to the recorded wall total within
// 1e-9 relative error.
func (p *SelfProfile) Validate() error {
	if p.Schema != SelfProfileSchema {
		return fmt.Errorf("obs: self-profile schema %q, want %q", p.Schema, SelfProfileSchema)
	}
	if len(p.Stages) != int(stageCount) {
		return fmt.Errorf("obs: self-profile has %d stages, want %d", len(p.Stages), stageCount)
	}
	var sum float64
	for i, sc := range p.Stages {
		if sc.Stage != stageNames[i] {
			return fmt.Errorf("obs: self-profile stage[%d] = %q, want %q (canonical order)",
				i, sc.Stage, stageNames[i])
		}
		if sc.Seconds < 0 || math.IsNaN(sc.Seconds) || math.IsInf(sc.Seconds, 0) {
			return fmt.Errorf("obs: self-profile stage %q seconds %g invalid", sc.Stage, sc.Seconds)
		}
		if sc.Calls < 0 {
			return fmt.Errorf("obs: self-profile stage %q calls %d negative", sc.Stage, sc.Calls)
		}
		sum += sc.Seconds
	}
	// An ordered slice, not a map: which invalid field the error names
	// must not depend on iteration order.
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"wall_seconds", p.WallSeconds},
		{"elapsed_seconds", p.ElapsedSeconds},
		{"gc_pause_seconds", p.GCPauseSeconds},
	} {
		name, v := c.name, c.v
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("obs: self-profile %s=%g invalid", name, v)
		}
	}
	if p.GCCycles < 0 {
		return fmt.Errorf("obs: self-profile gc_cycles %d negative", p.GCCycles)
	}
	if relErr(sum, p.WallSeconds) > 1e-9 {
		return fmt.Errorf("obs: self-profile stages sum to %g, recorded wall %g", sum, p.WallSeconds)
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

// WriteReport renders the top-n stages by wall cost as a human table.
func (p *SelfProfile) WriteReport(w io.Writer, n int) error {
	stages := append([]StageCost(nil), p.Stages...)
	sort.Slice(stages, func(i, j int) bool {
		//fiberlint:ignore floatcmp exact tie-break keeps the ordering deterministic
		if stages[i].Seconds != stages[j].Seconds {
			return stages[i].Seconds > stages[j].Seconds
		}
		return stages[i].Stage < stages[j].Stage
	})
	if n > 0 && n < len(stages) {
		stages = stages[:n]
	}
	if _, err := fmt.Fprintf(w, "self-profile %s: wall %.3fs elapsed %.3fs allocs %d (%.1f MiB)\n",
		p.Label, p.WallSeconds, p.ElapsedSeconds, p.Allocs, float64(p.AllocBytes)/(1<<20)); err != nil {
		return err
	}
	for _, sc := range stages {
		pct := 0.0
		if p.WallSeconds > 0 {
			pct = 100 * sc.Seconds / p.WallSeconds
		}
		if _, err := fmt.Fprintf(w, "  %-14s %10.6fs %5.1f%% %9d calls\n",
			sc.Stage, sc.Seconds, pct, sc.Calls); err != nil {
			return err
		}
	}
	return nil
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
