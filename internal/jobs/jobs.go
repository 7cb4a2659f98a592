// Package jobs is the resilient job-execution engine behind fiberd's
// POST /jobs: a bounded admission queue, a worker pool with per-job
// deadlines, panic isolation and bounded exponential backoff with
// jitter, a per-(app, machine) circuit breaker, and a crash-safe JSONL
// journal that records every state transition so a SIGKILL'd daemon
// replays the journal on restart and resumes or re-queues incomplete
// jobs exactly once.
//
// The package is deliberately transport-free: it knows nothing about
// HTTP or the miniapps. Execution is delegated to an injected Runner,
// timekeeping to an injected clock, and observability to an optional
// obs.Registry, so the whole state machine is unit-testable in
// isolation. cmd/fiberd supplies the HTTP surface and wires the
// Runner to the harness/miniapps path.
//
// State machine (every arrow is one journal record):
//
//	accepted ──▶ running ──▶ done
//	    ▲           │  └───▶ failed
//	    │           ▼
//	    └──── retrying (backoff, bounded)
//
// done and failed are terminal; a journal whose last record for a job
// is non-terminal marks work lost to a crash, which recovery re-queues.
package jobs

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"fibersim/internal/obs"
)

// State is one node of the job state machine.
type State string

const (
	// StateAccepted: admitted to the queue, not yet picked up.
	StateAccepted State = "accepted"
	// StateRunning: a worker is executing an attempt.
	StateRunning State = "running"
	// StateRetrying: an attempt failed retryably; the job is in
	// backoff before the next attempt.
	StateRetrying State = "retrying"
	// StateDone: terminal success.
	StateDone State = "done"
	// StateFailed: terminal failure (retries exhausted, timeout, or a
	// non-retryable error).
	StateFailed State = "failed"
)

// Terminal reports whether the state ends the job's lifecycle.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// valid reports whether s is a known state (journal replay rejects
// records from the future).
func (s State) valid() bool {
	switch s {
	case StateAccepted, StateRunning, StateRetrying, StateDone, StateFailed:
		return true
	}
	return false
}

// Spec is one run request: the paper's experiment axes plus the
// resilience knobs. It is the wire format of POST /jobs and the
// payload of the journal's accepted record, so replay can re-queue a
// job without any state beyond the journal.
type Spec struct {
	App      string `json:"app"`
	Machine  string `json:"machine,omitempty"`
	Procs    int    `json:"procs,omitempty"`
	Threads  int    `json:"threads,omitempty"`
	Compiler string `json:"compiler,omitempty"`
	Size     string `json:"size,omitempty"`
	// Fault is an optional fault-schedule spec (see fault.ParseSchedule).
	Fault string `json:"fault,omitempty"`
	// MaxRetries bounds retry attempts for this job; the manager caps
	// it at its own configured ceiling.
	MaxRetries int `json:"max_retries,omitempty"`
}

// Validate checks the shape a Spec must have before admission. Deep
// validation (does the app exist, does the decomposition fit the
// machine) is the resolver's job — see harness.RunSpec.
func (s Spec) Validate() error {
	if strings.TrimSpace(s.App) == "" {
		return errors.New("jobs: spec has no app")
	}
	if s.Procs < 0 || s.Threads < 0 {
		return fmt.Errorf("jobs: spec decomposition %dx%d negative", s.Procs, s.Threads)
	}
	if s.MaxRetries < 0 {
		return fmt.Errorf("jobs: spec max_retries %d negative", s.MaxRetries)
	}
	return nil
}

// Key is the circuit-breaker grouping: failures are correlated per
// (app, machine), not per job.
func (s Spec) Key() string {
	m := s.Machine
	if m == "" {
		m = "a64fx" // common.RunConfig's default machine
	}
	return s.App + "|" + m
}

// Result is the summary a completed job reports back: the numbers a
// sweep row or a perfdb record would carry.
type Result struct {
	TimeSeconds float64 `json:"time_seconds"`
	GFlops      float64 `json:"gflops"`
	Verified    bool    `json:"verified"`
}

// Job is one tracked job. The manager hands out copies; the canonical
// instance lives behind the manager's lock.
type Job struct {
	ID    string `json:"id"`
	Spec  Spec   `json:"spec"`
	State State  `json:"state"`
	// Attempt counts started execution attempts (1 on the first run).
	Attempt int `json:"attempt,omitempty"`
	// Err holds the most recent attempt's failure, set on retrying and
	// failed states.
	Err string `json:"error,omitempty"`
	// Result is set on done.
	Result *Result `json:"result,omitempty"`
	// Recovered marks a job re-queued from the journal after a crash.
	Recovered bool `json:"recovered,omitempty"`
	// TraceID names the service trace covering this job's lifecycle
	// (GET /traces/{id}); empty when the job was submitted untraced or
	// recovered from a journal written by a dead process.
	TraceID string `json:"trace_id,omitempty"`
	// Cached marks a snapshot served from the idempotent result cache
	// rather than a fresh execution; Coalesced marks a duplicate
	// submission attached to an already in-flight job. Both are serve
	// markers set on the returned copy, never on the canonical job.
	Cached    bool `json:"cached,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`

	// Service-trace plumbing, alive only in the submitting process (a
	// recovered job's trace died with the daemon that opened it).
	span      *obs.Span // root span; the manager ends it at the terminal transition
	queueSpan *obs.Span // queue-wait child, open between enqueue and dequeue
	enqueued  time.Time // wall time of admission, for the queue-wait histogram
	hash      string    // canonical spec content hash; "" when caching is off
}
