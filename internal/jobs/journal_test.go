package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "jobs.journal")
}

func rec(id string, state State, spec *Spec) Record {
	return Record{Schema: JournalSchema, ID: id, State: state, Spec: spec}
}

func TestJournalRoundTrip(t *testing.T) {
	path := tmpJournal(t)
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	spec := &Spec{App: "stream", Machine: "a64fx", Procs: 4, Threads: 12, Size: "test"}
	for _, r := range []Record{
		rec("job-000001", StateAccepted, spec),
		rec("job-000001", StateRunning, nil),
		{Schema: JournalSchema, ID: "job-000001", State: StateDone,
			Attempt: 1, Result: &Result{TimeSeconds: 0.5, GFlops: 80, Verified: true}},
	} {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, recs, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].State != StateDone || recs[2].Result == nil || !recs[2].Result.Verified {
		t.Fatalf("replayed %+v", recs)
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	path := tmpJournal(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{App: "stream"}
	if err := j.Append(rec("job-000001", StateAccepted, spec)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a mid-write SIGKILL: an unterminated garbage tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"schema":"fibersim/job-journal/v1","id":"job-0000`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if len(recs) != 1 || recs[0].ID != "job-000001" {
		t.Fatalf("replayed %+v", recs)
	}
	// The tail was truncated away, and new appends land on a clean line.
	if err := j2.Append(rec("job-000002", StateAccepted, spec)); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].ID != "job-000002" {
		t.Fatalf("post-heal replay = %+v", recs)
	}
}

func TestJournalMalformedTerminatedLineErrors(t *testing.T) {
	path := tmpJournal(t)
	if err := os.WriteFile(path, []byte("not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path); err == nil ||
		!strings.Contains(err.Error(), "not a job-journal line") {
		t.Fatalf("err = %v, want not-a-journal", err)
	}
	// Valid JSON with the wrong schema is also refused, with position.
	if err := os.WriteFile(path, []byte(`{"schema":"bogus/v9","id":"x","state":"done"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path); err == nil || !strings.Contains(err.Error(), ":1:") {
		t.Fatalf("err = %v, want schema error at line 1", err)
	}
}

// TestJournalSyncCadence: every append, terminal or not, is on disk
// before Append returns.
func TestJournalSyncCadence(t *testing.T) {
	j, _, err := OpenJournal(tmpJournal(t))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	spec := &Spec{App: "stream"}
	for _, r := range []Record{
		rec("job-000001", StateAccepted, spec),
		rec("job-000001", StateRunning, nil),
		rec("job-000001", StateDone, nil),
	} {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
		// dirty is cleared only after a successful fsync.
		j.mu.Lock()
		dirty := j.dirty
		j.mu.Unlock()
		if dirty {
			t.Fatalf("%s record left the journal unsynced", r.State)
		}
	}
}

func TestReplayExactlyOnce(t *testing.T) {
	spec := &Spec{App: "stream"}
	recs := []Record{
		// Completed before the crash: stays done, never re-queued.
		rec("job-000001", StateAccepted, spec),
		rec("job-000001", StateRunning, nil),
		{Schema: JournalSchema, ID: "job-000001", State: StateDone, Attempt: 1,
			Result: &Result{TimeSeconds: 1}},
		// Mid-flight at the crash: re-queued with attempts preserved.
		rec("job-000002", StateAccepted, spec),
		{Schema: JournalSchema, ID: "job-000002", State: StateRunning, Attempt: 2},
		// Accepted, never started.
		rec("job-000003", StateAccepted, spec),
		// Failed terminally.
		rec("job-000004", StateAccepted, spec),
		{Schema: JournalSchema, ID: "job-000004", State: StateFailed, Attempt: 3, Err: "boom"},
		// Orphan transition whose accepted line died in the torn tail:
		// no spec, nothing to re-run, must not resurrect.
		{Schema: JournalSchema, ID: "job-000099", State: StateRunning, Attempt: 1},
	}
	jobs := Replay(recs)
	if len(jobs) != 4 {
		t.Fatalf("replayed %d jobs, want 4: %+v", len(jobs), jobs)
	}
	byID := map[string]*Job{}
	for _, j := range jobs {
		byID[j.ID] = j
	}
	if j := byID["job-000001"]; j.State != StateDone || j.Recovered || j.Result == nil {
		t.Errorf("done job mangled: %+v", j)
	}
	if j := byID["job-000002"]; j.State != StateAccepted || !j.Recovered || j.Attempt != 2 {
		t.Errorf("mid-flight job not re-queued: %+v", j)
	}
	if j := byID["job-000003"]; j.State != StateAccepted || !j.Recovered {
		t.Errorf("queued job not re-queued: %+v", j)
	}
	if j := byID["job-000004"]; j.State != StateFailed || j.Recovered || j.Err != "boom" {
		t.Errorf("failed job mangled: %+v", j)
	}
}

func TestRecordValidate(t *testing.T) {
	spec := &Spec{App: "stream"}
	for _, tc := range []struct {
		name string
		r    Record
	}{
		{"bad schema", Record{Schema: "x", ID: "a", State: StateDone}},
		{"no id", Record{Schema: JournalSchema, State: StateDone}},
		{"bad state", Record{Schema: JournalSchema, ID: "a", State: "levitating"}},
		{"accepted without spec", Record{Schema: JournalSchema, ID: "a", State: StateAccepted}},
	} {
		if err := tc.r.Validate(); err == nil {
			t.Errorf("%s: Validate passed", tc.name)
		}
	}
	if err := rec("a", StateAccepted, spec).Validate(); err != nil {
		t.Errorf("good record: %v", err)
	}
}

func TestJournalClosedAppendFails(t *testing.T) {
	j, _, err := OpenJournal(tmpJournal(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec("a", StateAccepted, &Spec{App: "s"})); err == nil {
		t.Fatal("append on closed journal passed")
	}
	if err := j.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestOpenJournalBadPath(t *testing.T) {
	if _, _, err := OpenJournal(filepath.Join(t.TempDir(), "no", "such", "dir", "j")); err == nil {
		t.Fatal("open under missing dir passed")
	}
	var pe *os.PathError
	_, _, err := OpenJournal(t.TempDir()) // a directory, not a file
	if err == nil || !errors.As(err, &pe) {
		t.Fatalf("open of a directory = %v", err)
	}
}

// TestJournalV1BackwardCompat replays journals written by older
// daemons, byte-for-byte as they wrote them: a v1 journal, and a v2
// journal carrying the tenant field those daemons recorded at top level
// and in the spec, which replay ignores. Either way the done job is
// restored and the in-flight job re-queued, exactly once.
func TestJournalV1BackwardCompat(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lines []string
	}{
		{"v1", []string{
			`{"schema":"fibersim/job-journal/v1","id":"job-000001","state":"accepted","spec":{"app":"stream","machine":"a64fx","procs":4,"threads":12,"size":"test"},"unix_ns":1700000000000000000}`,
			`{"schema":"fibersim/job-journal/v1","id":"job-000001","state":"running","attempt":1}`,
			`{"schema":"fibersim/job-journal/v1","id":"job-000001","state":"done","attempt":1,"result":{"time_seconds":0.5,"gflops":80,"verified":true}}`,
			`{"schema":"fibersim/job-journal/v1","id":"job-000002","state":"accepted","spec":{"app":"mvmc"}}`,
			`{"schema":"fibersim/job-journal/v1","id":"job-000002","state":"running","attempt":1}`,
		}},
		{"v2 with tenants", []string{
			`{"schema":"fibersim/job-journal/v2","id":"job-000001","state":"accepted","spec":{"app":"stream","size":"test","tenant":"alice"},"unix_ns":1700000000000000000,"tenant":"alice"}`,
			`{"schema":"fibersim/job-journal/v2","id":"job-000001","state":"running","attempt":1,"unix_ns":1700000000000000000}`,
			`{"schema":"fibersim/job-journal/v2","id":"job-000001","state":"done","attempt":1,"result":{"time_seconds":0.5,"gflops":80,"verified":true},"unix_ns":1700000000000000000}`,
			`{"schema":"fibersim/job-journal/v2","id":"job-000002","state":"accepted","spec":{"app":"mvmc"},"unix_ns":1700000000000000000,"tenant":"default"}`,
			`{"schema":"fibersim/job-journal/v2","id":"job-000002","state":"running","attempt":1,"unix_ns":1700000000000000000}`,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := tmpJournal(t)
			if err := os.WriteFile(path, []byte(strings.Join(tc.lines, "\n")+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			j, recs, err := OpenJournal(path)
			if err != nil {
				t.Fatalf("older journal refused: %v", err)
			}
			if len(recs) != 5 {
				t.Fatalf("replayed %d records, want 5", len(recs))
			}
			var ran atomic.Int64
			cfg := testConfig(func(ctx context.Context, spec Spec) (Result, error) {
				if spec.App != "mvmc" {
					t.Errorf("re-ran %+v, want only the in-flight mvmc job", spec)
				}
				ran.Add(1)
				return Result{TimeSeconds: 1, GFlops: 1, Verified: true}, nil
			})
			cfg.Journal = j
			m, err := NewManager(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.Recover(recs)
			if got, ok := m.Get("job-000001"); !ok || got.State != StateDone || got.Result == nil || got.Result.GFlops != 80 {
				t.Fatalf("done job replayed as %+v", got)
			}
			if d := m.QueueDepth(); d != 1 {
				t.Fatalf("re-queued %d jobs, want 1", d)
			}
			m.Start()
			if got := waitTerminal(t, m, "job-000002"); got.State != StateDone || !got.Recovered {
				t.Fatalf("in-flight job finished as %+v", got)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := m.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			if n := ran.Load(); n != 1 {
				t.Fatalf("runner executed %d times, want 1", n)
			}
			// The reopened journal appended current records after the
			// old ones: running and done for job-000002.
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if _, recs, err = OpenJournal(path); err != nil || len(recs) != 7 {
				t.Fatalf("mixed journal: %d records, err %v", len(recs), err)
			}
			if jobs := Replay(recs); len(jobs) != 2 || jobs[1].State != StateDone {
				t.Fatalf("mixed journal replays to %+v", jobs)
			}
		})
	}
}

func TestCompactJournalDropsSettledJobs(t *testing.T) {
	path := tmpJournal(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	old := time.Unix(1700000000, 0)
	now := old.Add(48 * time.Hour)
	spec := &Spec{App: "stream"}
	// Three settled-long-ago jobs, one recent, one still in flight,
	// one terminal but timestampless (age unknown — kept).
	for i := 1; i <= 3; i++ {
		id := fmt.Sprintf("job-%06d", i)
		appendAll(t, j,
			Record{Schema: JournalSchema, ID: id, State: StateAccepted, Spec: spec, UnixNanos: old.UnixNano()},
			Record{Schema: JournalSchema, ID: id, State: StateDone, Attempt: 1,
				Result: &Result{TimeSeconds: 1, GFlops: 1, Verified: true}, UnixNanos: old.UnixNano()})
	}
	appendAll(t, j,
		Record{Schema: JournalSchema, ID: "job-000004", State: StateAccepted, Spec: spec, UnixNanos: now.UnixNano()},
		Record{Schema: JournalSchema, ID: "job-000004", State: StateFailed, Attempt: 1, Err: "x", UnixNanos: now.UnixNano()},
		Record{Schema: JournalSchema, ID: "job-000005", State: StateAccepted, Spec: spec, UnixNanos: old.UnixNano()},
		Record{Schema: JournalSchema, ID: "job-000005", State: StateRunning, Attempt: 1, UnixNanos: old.UnixNano()},
		Record{Schema: JournalSchema, ID: "job-000006", State: StateAccepted, Spec: spec},
		Record{Schema: JournalSchema, ID: "job-000006", State: StateDone, Attempt: 1,
			Result: &Result{TimeSeconds: 1, GFlops: 1, Verified: true}})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	kept, dropped, err := CompactJournal(path, 24*time.Hour, now)
	if err != nil {
		t.Fatal(err)
	}
	if kept != 3 || dropped != 3 {
		t.Fatalf("compaction kept %d dropped %d, want 3/3", kept, dropped)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the journal: %d -> %d bytes", before.Size(), after.Size())
	}
	// The compacted journal replays cleanly: the stale jobs are gone,
	// the recent terminal, the in-flight, and the ageless one remain.
	_, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	jobs := Replay(recs)
	ids := make([]string, 0, len(jobs))
	for _, jb := range jobs {
		ids = append(ids, jb.ID)
	}
	if want := "[job-000004 job-000005 job-000006]"; fmt.Sprint(ids) != want {
		t.Fatalf("post-compaction jobs %v, want %s", ids, want)
	}

	// Nothing left to drop: a second compaction is a no-op that leaves
	// the file untouched.
	stat1, _ := os.Stat(path)
	kept, dropped, err = CompactJournal(path, 24*time.Hour, now)
	if err != nil || kept != 3 || dropped != 0 {
		t.Fatalf("idempotent compaction: kept %d dropped %d err %v", kept, dropped, err)
	}
	stat2, _ := os.Stat(path)
	if stat1.ModTime() != stat2.ModTime() || stat1.Size() != stat2.Size() {
		t.Fatal("no-op compaction rewrote the file")
	}

	// A missing journal is nothing to compact, not an error.
	if k, d, err := CompactJournal(filepath.Join(t.TempDir(), "absent"), time.Hour, now); k != 0 || d != 0 || err != nil {
		t.Fatalf("missing journal: (%d, %d, %v)", k, d, err)
	}
}

// TestCompactJournalTornCompactionCrash simulates dying mid-compaction:
// a half-written .compact temp file must not corrupt anything — the
// original journal is untouched, and the next compaction simply
// overwrites the debris.
func TestCompactJournalTornCompactionCrash(t *testing.T) {
	path := tmpJournal(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	old := time.Unix(1700000000, 0)
	now := old.Add(48 * time.Hour)
	appendAll(t, j,
		Record{Schema: JournalSchema, ID: "job-000001", State: StateAccepted,
			Spec: &Spec{App: "stream"}, UnixNanos: old.UnixNano()},
		Record{Schema: JournalSchema, ID: "job-000001", State: StateDone, Attempt: 1,
			Result: &Result{TimeSeconds: 1, GFlops: 1, Verified: true}, UnixNanos: old.UnixNano()},
		Record{Schema: JournalSchema, ID: "job-000002", State: StateAccepted,
			Spec: &Spec{App: "mvmc"}, UnixNanos: now.UnixNano()})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	original, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The torn temp file a mid-write crash leaves behind: garbage,
	// unterminated.
	if err := os.WriteFile(path+".compact", []byte(`{"schema":"fibersim/job-jo`), 0o644); err != nil {
		t.Fatal(err)
	}
	// The journal itself still opens fine — compaction never touched it.
	if _, recs, err := OpenJournal(path); err != nil || len(recs) != 3 {
		t.Fatalf("journal after torn compaction: %d records, err %v", len(recs), err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != string(original) {
		t.Fatal("torn compaction altered the journal")
	}

	// Retrying the compaction overwrites the debris and completes.
	kept, dropped, err := CompactJournal(path, 24*time.Hour, now)
	if err != nil || kept != 1 || dropped != 1 {
		t.Fatalf("retry compaction: kept %d dropped %d err %v", kept, dropped, err)
	}
	if _, err := os.Stat(path + ".compact"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("temp file left behind after successful compaction")
	}
	_, recs, err := OpenJournal(path)
	if err != nil || len(recs) != 1 || recs[0].ID != "job-000002" {
		t.Fatalf("post-retry journal: %+v, err %v", recs, err)
	}
}

func appendAll(t *testing.T, j *Journal, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}
