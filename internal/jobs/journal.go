package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fibersim/internal/fault"
	"fibersim/internal/jsonl"
)

// JournalSchema identifies the job-journal record layout; bump on any
// incompatible change. New records are always written as v2, and v1
// journals still replay. v2 lines written by older daemons may carry a
// tenant field, at top level and in the spec; replay ignores it, so the
// layout did not change incompatibly and the version stays v2.
const (
	JournalSchema   = "fibersim/job-journal/v2"
	JournalSchemaV1 = "fibersim/job-journal/v1"
)

// Record is one journal line: a job state transition. The accepted
// record carries the full Spec so replay needs nothing but the
// journal; the done record carries the Result so a restarted daemon
// can still serve completed jobs.
type Record struct {
	Schema  string  `json:"schema"`
	ID      string  `json:"id"`
	State   State   `json:"state"`
	Attempt int     `json:"attempt,omitempty"`
	Spec    *Spec   `json:"spec,omitempty"`
	Err     string  `json:"error,omitempty"`
	Result  *Result `json:"result,omitempty"`
	// UnixNanos stamps the transition (informational; replay ignores
	// it — ordering is the file order).
	UnixNanos int64 `json:"unix_ns,omitempty"`
	// TraceID, on the accepted record, links the journal to the
	// service trace that admitted the job, so post-mortem triage can
	// pair journal lines with trace exports. Informational: the trace
	// itself is in-memory and does not survive the daemon.
	TraceID string `json:"trace_id,omitempty"`
}

// Validate checks the invariants replay relies on.
func (r Record) Validate() error {
	if r.Schema != JournalSchema && r.Schema != JournalSchemaV1 {
		return fmt.Errorf("jobs: journal record schema %q, want %q", r.Schema, JournalSchema)
	}
	if r.ID == "" {
		return fmt.Errorf("jobs: journal record has no job id")
	}
	if !r.State.valid() {
		return fmt.Errorf("jobs: journal record %s has unknown state %q", r.ID, r.State)
	}
	if r.State == StateAccepted && r.Spec == nil {
		return fmt.Errorf("jobs: journal record %s: accepted without spec", r.ID)
	}
	return nil
}

// SyncInterval derives the journal's fsync cadence from Daly's
// checkpoint model (fault.CheckpointPolicy): the fsync is the
// "checkpoint write" (cost = writeCost), a daemon crash is the
// "failure" (rate = 1/mtbf), and the work lost to a crash is the
// un-synced journal suffix. Daly's near-optimal interval
// sqrt(2·δ·M) − δ balances fsync overhead against replayed work. A
// zero or negative mtbf — "assume the daemon can die any instant" —
// returns 0, which Journal treats as sync-every-append.
func SyncInterval(writeCost, mtbf time.Duration) time.Duration {
	if mtbf <= 0 {
		return 0
	}
	if writeCost <= 0 {
		writeCost = time.Millisecond // a conservative fsync estimate
	}
	tau := fault.OptimalInterval(writeCost.Seconds(), mtbf.Seconds())
	return time.Duration(tau * float64(time.Second))
}

// Journal is the crash-safe transition log: one JSON line per Record,
// append-only, fsynced on a Daly-derived cadence (terminal records
// are always synced immediately — a completed job must never replay).
// Like fibersweep's -resume checkpoint and the perfdb trajectory, it is
// read under jsonl's torn-tail rule: OpenJournal truncates a torn tail
// away, and the affected transition simply reappears when the job
// re-runs.
type Journal struct {
	mu        sync.Mutex
	f         *os.File
	path      string
	syncEvery time.Duration
	lastSync  time.Time
	dirty     bool
	now       func() time.Time
}

// OpenJournal opens (creating if absent) the journal at path, replays
// every record under jsonl's torn-tail rule, and positions the file
// for appending. syncEvery is the fsync cadence (see SyncInterval); 0
// syncs every append. A malformed record that IS newline-terminated
// means the file is not a job journal — that is an error, not data
// loss.
func OpenJournal(path string, syncEvery time.Duration) (*Journal, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	var recs []Record
	if _, err := jsonl.Load(f, decodeRecord(&recs)); err != nil {
		_ = f.Close() // the load error is the one worth reporting
		return nil, nil, fmt.Errorf("jobs: %w", err)
	}
	return &Journal{f: f, path: path, syncEvery: syncEvery, now: time.Now}, recs, nil
}

// decodeRecord returns the jsonl decode function for journal lines: it
// appends each line that parses and validates to *recs.
func decodeRecord(recs *[]Record) func([]byte) error {
	return func(line []byte) error {
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			return fmt.Errorf("not a job-journal line: %v", err)
		}
		if err := r.Validate(); err != nil {
			return err
		}
		*recs = append(*recs, r)
		return nil
	}
}

// CompactJournal rewrites the journal at path, dropping every record
// of jobs whose final state is terminal and older than retention —
// the journal's job is crash recovery, and a done/failed job settled
// long ago has nothing left to recover. Records of live (non-terminal)
// jobs are always kept, whatever their age, as are terminal jobs whose
// records carry no timestamp (age unknown — keep is the safe side).
//
// The rewrite is crash-safe: surviving records go to path+".compact",
// fsynced, then renamed over the journal, then the directory is
// fsynced so the rename itself survives. A crash before the rename
// leaves the original journal untouched (a leftover .compact file is
// simply overwritten next time); a crash after is the completed
// compaction. When nothing would be dropped the file is left alone.
//
// Returns the number of jobs kept and dropped. A missing journal is
// (0, 0, nil): nothing to compact on first boot.
func CompactJournal(path string, retention time.Duration, now time.Time) (kept, dropped int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, err
	}
	var recs []Record
	if _, _, err := jsonl.Scan(path, data, decodeRecord(&recs)); err != nil {
		return 0, 0, fmt.Errorf("jobs: %w", err)
	}

	// A job is droppable when its last record is terminal, timestamped,
	// and at or past the retention horizon.
	type jobTail struct {
		state State
		nanos int64
	}
	tails := map[string]jobTail{}
	var ids []string
	for _, r := range recs {
		if _, ok := tails[r.ID]; !ok {
			ids = append(ids, r.ID)
		}
		tails[r.ID] = jobTail{state: r.State, nanos: r.UnixNanos}
	}
	cutoff := now.Add(-retention).UnixNano()
	drop := map[string]bool{}
	for _, id := range ids {
		t := tails[id]
		if t.state.Terminal() && t.nanos > 0 && t.nanos <= cutoff {
			drop[id] = true
			dropped++
		} else {
			kept++
		}
	}
	if dropped == 0 {
		return kept, 0, nil
	}

	tmp := path + ".compact"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, 0, err
	}
	for _, r := range recs {
		if drop[r.ID] {
			continue
		}
		b, err := json.Marshal(r)
		if err != nil {
			_ = f.Close() // the marshal error is the one worth reporting
			return 0, 0, err
		}
		if _, err := f.Write(append(b, '\n')); err != nil {
			_ = f.Close() // the write error is the one worth reporting
			return 0, 0, err
		}
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // the sync error is the one worth reporting
		return 0, 0, err
	}
	if err := f.Close(); err != nil {
		return 0, 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, 0, err
	}
	// fsync the directory so the rename — the commit point — survives a
	// crash too.
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync() // best effort: some filesystems refuse dir fsync
		_ = dir.Close()
	}
	return kept, dropped, nil
}

// Append writes one record (line plus newline in a single write, so
// the torn-tail rule holds) and syncs according to the cadence.
// Terminal records sync unconditionally: the done/failed line is the
// exactly-once marker and must survive an immediate SIGKILL.
func (j *Journal) Append(r Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("jobs: journal %s is closed", j.path)
	}
	if _, err := j.f.Write(append(b, '\n')); err != nil {
		return err
	}
	j.dirty = true
	if r.State.Terminal() || j.syncEvery <= 0 || j.now().Sub(j.lastSync) >= j.syncEvery {
		return j.syncLocked()
	}
	return nil
}

func (j *Journal) syncLocked() error {
	if !j.dirty {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.dirty = false
	j.lastSync = j.now()
	return nil
}

// Sync forces any buffered cadence window to disk.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	return j.syncLocked()
}

// Close syncs and closes the journal; further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	serr := j.syncLocked()
	cerr := j.f.Close()
	j.f = nil
	if serr != nil {
		return serr
	}
	return cerr
}

// Replay folds journal records into the jobs they describe, in first-
// appearance order. A job whose last record is terminal is returned
// as completed history; any other job was in flight when the previous
// process died and comes back in StateAccepted with Recovered set, so
// the manager re-queues it exactly once. Records for an unknown job
// id without a preceding accepted record are tolerated (the accepted
// line may have been in the torn tail) but produce no job — without a
// spec there is nothing to re-run.
func Replay(recs []Record) []*Job {
	byID := map[string]*Job{}
	var order []*Job
	for _, r := range recs {
		job := byID[r.ID]
		if job == nil {
			if r.Spec == nil {
				continue // spec lost with the torn accepted line
			}
			job = &Job{ID: r.ID, Spec: *r.Spec, TraceID: r.TraceID}
			byID[r.ID] = job
			order = append(order, job)
		}
		job.State = r.State
		if r.Attempt > 0 {
			job.Attempt = r.Attempt
		}
		job.Err = r.Err
		if r.Result != nil {
			job.Result = r.Result
		}
	}
	for _, job := range order {
		if !job.State.Terminal() {
			job.State = StateAccepted
			job.Recovered = true
		}
	}
	return order
}
