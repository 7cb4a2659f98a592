// Package perfdb is the append-only benchmark trajectory store: one
// JSONL record per benchmarked configuration per revision, keyed by
// app/machine/decomposition/compiler/size, carrying the virtual
// runtime, the ECM-style attribution split, the communication volume,
// the host cost of producing them and the git revision that did.
//
// The store is the cross-run half of the observability layer: the run
// manifest (internal/obs) captures one run in depth, the trajectory
// captures the same few numbers across many revisions. Its model
// fields are history; the exact model golden in tier-1
// (internal/miniapps/common) is what checks them. Its host-cost fields
// are what `fiberperf check` gates, statistically: detection uses a
// median/MAD baseline window (see detect.go), so a handful of noisy
// historical samples cannot poison the gate.
//
// The repo-level trajectory lives in BENCH_fibersim.json (JSON lines,
// append-only, committed) so the benchmark history travels with the
// code it measures.
package perfdb

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"

	"fibersim/internal/jsonl"
)

// RecordSchema identifies the trajectory record layout; bump on any
// incompatible change.
const RecordSchema = "fibersim/bench-record/v1"

// DefaultPath is the repo-level trajectory file.
const DefaultPath = "BENCH_fibersim.json"

// ErrNonFinite is wrapped by Append and Validate when a sample carries
// a NaN or infinite number: such a record would poison every later
// median/MAD baseline, so it is refused at the door.
var ErrNonFinite = errors.New("non-finite sample")

// Record is one benchmarked configuration at one revision.
type Record struct {
	Schema  string `json:"schema"`
	App     string `json:"app"`
	Machine string `json:"machine"`
	Procs   int    `json:"procs"`
	Threads int    `json:"threads"`
	// Compiler is the canonical compiler-config string (core.CompilerConfig.String).
	Compiler string `json:"compiler"`
	Size     string `json:"size"`
	// Rev is the git revision that produced the record (best effort;
	// empty when the tree is not a git checkout).
	Rev string `json:"rev,omitempty"`
	// SpecHash is the canonical content hash of the job spec that
	// produced the record (jobs.Spec.ContentHash), set when the record
	// was appended by fiberd's result cache. Optional and ignored by
	// detection; it lets a trajectory file double as the cache's durable
	// index. Records written before this field exist load unchanged.
	SpecHash string `json:"spec_hash,omitempty"`
	// UnixTime stamps the wall-clock recording time (informational;
	// detection never consults it).
	UnixTime int64 `json:"unix_time,omitempty"`
	// TimeSeconds is the virtual makespan: the modelled A64FX time,
	// which no gate reads from the trajectory.
	TimeSeconds float64 `json:"time_seconds"`
	GFlops      float64 `json:"gflops"`
	Verified    bool    `json:"verified"`
	// Attribution is the run's ECM-style split (compute/stall/l1/l2/mem
	// seconds summed over kernels); zero buckets are omitted.
	Attribution map[string]float64 `json:"attribution,omitempty"`
	// CommBytes totals the MPI payload (sends + collectives).
	CommBytes int64 `json:"comm_bytes"`
	// WallSeconds/AllocsPerRun measure the simulator process itself:
	// the real wall-clock cost of the cell and its heap allocation
	// count, the two numbers the gate watches. Zero on records written
	// before self-observability existed (and on records taken without a
	// clock); the gate skips them.
	WallSeconds  float64 `json:"wall_seconds,omitempty"`
	AllocsPerRun float64 `json:"allocs_per_run,omitempty"`
}

// Key renders the configuration identity the baseline windows group
// by: app|machine|PxT|compiler|size.
func (r Record) Key() string {
	return fmt.Sprintf("%s|%s|%dx%d|%s|%s",
		r.App, r.Machine, r.Procs, r.Threads, r.Compiler, r.Size)
}

// Validate checks the invariants Append enforces: identity fields
// present, finite non-negative samples.
func (r Record) Validate() error {
	if r.Schema != RecordSchema {
		return fmt.Errorf("perfdb: record schema %q, want %q", r.Schema, RecordSchema)
	}
	if r.App == "" || r.Machine == "" {
		return fmt.Errorf("perfdb: record %q has no app/machine identity", r.Key())
	}
	if r.Procs < 1 || r.Threads < 1 {
		return fmt.Errorf("perfdb: record %q decomposition %dx%d invalid", r.Key(), r.Procs, r.Threads)
	}
	// Ordered slices / sorted keys, not bare map ranges: with several
	// invalid fields, which one the error names must not depend on map
	// iteration order (the fiberlint nondet rule enforces this).
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"time_seconds", r.TimeSeconds},
		{"gflops", r.GFlops},
		{"wall_seconds", r.WallSeconds},
		{"allocs_per_run", r.AllocsPerRun},
	} {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return fmt.Errorf("perfdb: record %q %s=%g: %w", r.Key(), c.name, c.v, ErrNonFinite)
		}
		if c.v < 0 {
			return fmt.Errorf("perfdb: record %q %s=%g negative", r.Key(), c.name, c.v)
		}
	}
	if r.TimeSeconds == 0 {
		return fmt.Errorf("perfdb: record %q has zero runtime", r.Key())
	}
	resources := make([]string, 0, len(r.Attribution))
	for res := range r.Attribution {
		resources = append(resources, res)
	}
	sort.Strings(resources)
	for _, res := range resources {
		v := r.Attribution[res]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("perfdb: record %q attribution[%s]=%g: %w", r.Key(), res, v, ErrNonFinite)
		}
		if v < 0 {
			return fmt.Errorf("perfdb: record %q attribution[%s]=%g negative", r.Key(), res, v)
		}
	}
	if r.CommBytes < 0 {
		return fmt.Errorf("perfdb: record %q comm_bytes=%d negative", r.Key(), r.CommBytes)
	}
	return nil
}

// Trajectory is the loaded store: records in append order plus the
// path appends go to. A Trajectory with an empty Path is in-memory
// only (used by tests and dry runs).
type Trajectory struct {
	Path    string
	Records []Record
}

// Load reads the trajectory at path. A missing file is an empty
// trajectory, not an error: the first `record` on a fresh checkout
// starts the history.
//
// Load applies jsonl's torn-tail rule: a malformed newline-terminated
// line means the file is not a trajectory (an error, not data loss); an
// unterminated final record that still validates is kept and its
// newline restored; any other tail is truncated away so later appends
// start on a clean line. On a file it cannot open for writing, Load
// reads without repairing: the tolerance is then in memory only.
func Load(path string) (*Trajectory, error) {
	t := &Trajectory{Path: path}
	decode := func(line []byte) error {
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		if err := r.Validate(); err != nil {
			return err
		}
		t.Records = append(t.Records, r)
		return nil
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if errors.Is(err, os.ErrNotExist) {
		return t, nil
	}
	if err != nil {
		// Permission trouble? Read without repair: loading a committed
		// history from a read-only checkout must work (appends would
		// fail there anyway).
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return nil, rerr
		}
		_, _, err = jsonl.Scan(path, data, decode)
	} else {
		_, err = jsonl.Load(f, decode)
		_ = f.Close() // writes are unbuffered; Close has nothing left to report
	}
	if err != nil {
		return nil, fmt.Errorf("perfdb: %w", err)
	}
	return t, nil
}

// Append validates the records and appends them to the trajectory —
// in memory always, and as one JSON line each to Path when the
// trajectory is file-backed. The file is opened O_APPEND and synced,
// so a crash can lose at most the final partial line.
func (t *Trajectory) Append(recs ...Record) error {
	for _, r := range recs {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	if t.Path != "" {
		f, err := os.OpenFile(t.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		for _, r := range recs {
			b, err := json.Marshal(r)
			if err != nil {
				_ = f.Close() // the marshal error is the one worth reporting
				return err
			}
			if _, err := f.Write(append(b, '\n')); err != nil {
				_ = f.Close() // the write error is the one worth reporting
				return err
			}
		}
		if err := f.Sync(); err != nil {
			_ = f.Close() // the sync error is the one worth reporting
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	t.Records = append(t.Records, recs...)
	return nil
}

// Keys returns the distinct configuration keys, sorted.
func (t *Trajectory) Keys() []string {
	seen := map[string]bool{}
	for _, r := range t.Records {
		seen[r.Key()] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
