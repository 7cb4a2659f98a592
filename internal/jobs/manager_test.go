package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fibersim/internal/obs"
)

// fastBackoff keeps retry tests quick and deterministic.
var fastBackoff = Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, Rand: func() float64 { return 0 }}

func testConfig(runner Runner) Config {
	return Config{
		Runner:           runner,
		QueueCap:         16,
		Workers:          2,
		JobTimeout:       5 * time.Second,
		MaxRetries:       0,
		Backoff:          fastBackoff,
		BreakerThreshold: 100, // out of the way unless a test wants it
		BreakerCooldown:  time.Minute,
	}
}

func startManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = m.Drain(ctx)
	})
	return m
}

func waitTerminal(t *testing.T, m *Manager, id string) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := m.Get(id); ok && j.State.Terminal() {
			return j
		}
		time.Sleep(time.Millisecond)
	}
	j, _ := m.Get(id)
	t.Fatalf("job %s never reached a terminal state: %+v", id, j)
	return Job{}
}

func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func okRunner(ctx context.Context, spec Spec) (Result, error) {
	return Result{TimeSeconds: 0.5, GFlops: 80, Verified: true}, nil
}

func TestManagerHappyPath(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig(okRunner)
	cfg.Registry = reg
	m := startManager(t, cfg)

	job, err := m.Submit(Spec{App: "stream", Machine: "a64fx", Procs: 4, Threads: 12, Size: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "job-000001" || job.State != StateAccepted {
		t.Fatalf("submitted job = %+v", job)
	}
	done := waitTerminal(t, m, job.ID)
	if done.State != StateDone || done.Result == nil || !done.Result.Verified || done.Attempt != 1 {
		t.Fatalf("terminal job = %+v", done)
	}
	if got := m.Jobs(0); len(got) != 1 || got[0].ID != job.ID {
		t.Fatalf("listing = %+v", got)
	}
	if c := reg.Counter("fiberd_jobs_transitions_total", "", obs.Labels{"state": "done"}).Value(); c != 1 {
		t.Errorf("done transitions = %g, want 1", c)
	}
	if d := reg.Gauge("fiberd_jobs_queue_capacity", "", nil).Value(); d != 16 {
		t.Errorf("capacity gauge = %g", d)
	}
}

func TestManagerInvalidSpecRejected(t *testing.T) {
	m := startManager(t, testConfig(okRunner))
	if _, err := m.Submit(Spec{}); err == nil {
		t.Fatal("empty spec admitted")
	}
	if _, err := m.Submit(Spec{App: "stream", MaxRetries: -1}); err == nil {
		t.Fatal("negative retries admitted")
	}
}

func TestManagerQueueFullSheds(t *testing.T) {
	release := make(chan struct{})
	blocked := make(chan struct{}, 64)
	cfg := testConfig(func(ctx context.Context, spec Spec) (Result, error) {
		blocked <- struct{}{}
		<-release
		return Result{TimeSeconds: 1}, nil
	})
	cfg.Workers = 1
	cfg.QueueCap = 2
	reg := obs.NewRegistry()
	cfg.Registry = reg
	m := startManager(t, cfg)
	defer close(release)

	// First job occupies the lone worker...
	if _, err := m.Submit(Spec{App: "a"}); err != nil {
		t.Fatal(err)
	}
	<-blocked
	// ...two more fill the queue...
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(Spec{App: "a"}); err != nil {
			t.Fatal(err)
		}
	}
	// ...and the next is shed.
	if _, err := m.Submit(Spec{App: "a"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit = %v, want ErrQueueFull", err)
	}
	if ra := m.RetryAfter(); ra < time.Second || ra > time.Minute {
		t.Errorf("RetryAfter = %v, want clamped to [1s, 60s]", ra)
	}
	if d := reg.Gauge("fiberd_jobs_queue_depth", "", nil).Value(); d != 2 {
		t.Errorf("queue depth gauge = %g, want 2", d)
	}
	if c := reg.Counter("fiberd_jobs_rejected_total", "", obs.Labels{"reason": "queue_full"}).Value(); c != 1 {
		t.Errorf("queue_full rejections = %g, want 1", c)
	}
}

func TestManagerRetriesThenSucceeds(t *testing.T) {
	var calls atomic.Int32
	cfg := testConfig(func(ctx context.Context, spec Spec) (Result, error) {
		if calls.Add(1) < 3 {
			return Result{}, errors.New("transient")
		}
		return Result{TimeSeconds: 1, Verified: true}, nil
	})
	cfg.MaxRetries = 5
	reg := obs.NewRegistry()
	cfg.Registry = reg
	m := startManager(t, cfg)

	job, err := m.Submit(Spec{App: "flaky"})
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, m, job.ID)
	if done.State != StateDone || done.Attempt != 3 {
		t.Fatalf("job = %+v, want done on attempt 3", done)
	}
	if c := reg.Counter("fiberd_job_retries_total", "", nil).Value(); c != 2 {
		t.Errorf("retries counter = %g, want 2", c)
	}
	if c := reg.Counter("fiberd_jobs_transitions_total", "", obs.Labels{"state": "retrying"}).Value(); c != 2 {
		t.Errorf("retrying transitions = %g, want 2", c)
	}
}

func TestManagerRetriesExhaustedFails(t *testing.T) {
	cfg := testConfig(func(ctx context.Context, spec Spec) (Result, error) {
		return Result{}, errors.New("always broken")
	})
	cfg.MaxRetries = 2
	m := startManager(t, cfg)
	// The per-spec bound tightens the server default.
	job, err := m.Submit(Spec{App: "bad", MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, m, job.ID)
	if done.State != StateFailed || done.Attempt != 2 || !strings.Contains(done.Err, "always broken") {
		t.Fatalf("job = %+v, want failed after 2 attempts", done)
	}
}

func TestManagerPanicIsolated(t *testing.T) {
	cfg := testConfig(func(ctx context.Context, spec Spec) (Result, error) {
		panic("kernel exploded")
	})
	m := startManager(t, cfg)
	job, err := m.Submit(Spec{App: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, m, job.ID)
	if done.State != StateFailed || !strings.Contains(done.Err, "kernel exploded") {
		t.Fatalf("job = %+v, want failed with panic text", done)
	}
	// The worker survived: another job still executes.
	cfgOK, errOK := m.Submit(Spec{App: "boom"})
	if errOK != nil {
		t.Fatal(errOK)
	}
	waitTerminal(t, m, cfgOK.ID)
}

func TestManagerTimeoutFailsWithoutRetry(t *testing.T) {
	var calls atomic.Int32
	cfg := testConfig(func(ctx context.Context, spec Spec) (Result, error) {
		calls.Add(1)
		<-ctx.Done() // honour the deadline
		return Result{}, ctx.Err()
	})
	cfg.JobTimeout = 20 * time.Millisecond
	cfg.MaxRetries = 5
	m := startManager(t, cfg)
	job, err := m.Submit(Spec{App: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, m, job.ID)
	if done.State != StateFailed || !strings.Contains(done.Err, "deadline") {
		t.Fatalf("job = %+v, want deadline failure", done)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("attempts = %d; deadline failures must not retry", n)
	}
}

func TestManagerBreakerTripsAndReports(t *testing.T) {
	cfg := testConfig(func(ctx context.Context, spec Spec) (Result, error) {
		return Result{}, errors.New("hardware on fire")
	})
	cfg.BreakerThreshold = 2
	cfg.Workers = 1
	reg := obs.NewRegistry()
	cfg.Registry = reg
	m := startManager(t, cfg)

	// Two failing jobs trip the (app, machine) breaker.
	for i := 0; i < 2; i++ {
		job, err := m.Submit(Spec{App: "ffb", Machine: "a64fx"})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, m, job.ID)
	}
	_, err := m.Submit(Spec{App: "ffb", Machine: "a64fx"})
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("submit on tripped key = %v, want ErrBreakerOpen", err)
	}
	// Another key is unaffected.
	if _, err := m.Submit(Spec{App: "stream", Machine: "a64fx"}); err != nil {
		t.Fatalf("healthy key refused: %v", err)
	}
	states := m.BreakerStates()
	var tripped bool
	for _, s := range states {
		if s.Key == "ffb|a64fx" && s.State == BreakerOpen {
			tripped = true
		}
	}
	if !tripped {
		t.Fatalf("breaker states = %+v, want ffb|a64fx open", states)
	}
	if g := reg.Gauge("fiberd_breaker_state", "", obs.Labels{"key": "ffb|a64fx"}).Value(); g != 2 {
		t.Errorf("breaker gauge = %g, want 2 (open)", g)
	}
}

func TestManagerDrainPersistsQueueAndRefusesWork(t *testing.T) {
	path := tmpJournal(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	cfg := testConfig(func(ctx context.Context, spec Spec) (Result, error) {
		started <- struct{}{}
		<-release
		return Result{TimeSeconds: 1, Verified: true}, nil
	})
	cfg.Workers = 1
	cfg.Journal = j
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()

	running, err := m.Submit(Spec{App: "a"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := m.Submit(Spec{App: "b"})
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- m.Drain(ctx)
	}()
	waitFor(t, "draining flag", m.Draining)
	if _, err := m.Submit(Spec{App: "c"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain = %v, want ErrDraining", err)
	}
	close(release) // let the running job finish
	if err := <-drained; err != nil {
		t.Fatalf("drain = %v", err)
	}
	if got, _ := m.Get(running.ID); got.State != StateDone {
		t.Fatalf("running job after drain = %+v, want done", got)
	}
	if got, _ := m.Get(queued.ID); got.State != StateAccepted {
		t.Fatalf("queued job after drain = %+v, want still accepted (persisted)", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// The queued job survives in the journal for the next life.
	_, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	replayed := Replay(recs)
	var foundQueued bool
	for _, job := range replayed {
		if job.ID == queued.ID && job.State == StateAccepted && job.Recovered {
			foundQueued = true
		}
	}
	if !foundQueued {
		t.Fatalf("journal replay = %+v, want %s re-queued", replayed, queued.ID)
	}
}

// TestManagerCrashRecoveryExactlyOnce is the crash-recovery invariant
// in miniature: a journal from a previous life (one job done, one
// mid-flight, one queued) is replayed into a fresh manager, which must
// re-run exactly the incomplete jobs, exactly once each, and leave the
// completed job untouched.
func TestManagerCrashRecoveryExactlyOnce(t *testing.T) {
	path := tmpJournal(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// Era A, written as a SIGKILL'd daemon would have left it.
	eraA := []Record{
		rec("job-000001", StateAccepted, &Spec{App: "done-before-crash"}),
		{Schema: JournalSchema, ID: "job-000001", State: StateRunning, Attempt: 1},
		{Schema: JournalSchema, ID: "job-000001", State: StateDone, Attempt: 1,
			Result: &Result{TimeSeconds: 2, Verified: true}},
		rec("job-000002", StateAccepted, &Spec{App: "was-running"}),
		{Schema: JournalSchema, ID: "job-000002", State: StateRunning, Attempt: 1},
		rec("job-000003", StateAccepted, &Spec{App: "was-queued"}),
	}
	for _, r := range eraA {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Era B: recover and finish.
	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	ran := map[string]int{}
	cfg := testConfig(func(ctx context.Context, spec Spec) (Result, error) {
		mu.Lock()
		ran[spec.App]++
		mu.Unlock()
		return Result{TimeSeconds: 1, Verified: true}, nil
	})
	cfg.Journal = j2
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Recover(recs)
	m.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = m.Drain(ctx)
	})

	for _, id := range []string{"job-000002", "job-000003"} {
		if got := waitTerminal(t, m, id); got.State != StateDone || !got.Recovered {
			t.Fatalf("recovered job %s = %+v", id, got)
		}
	}
	if got, ok := m.Get("job-000001"); !ok || got.State != StateDone || got.Result.TimeSeconds != 2 {
		t.Fatalf("completed job rewritten: %+v", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran["done-before-crash"] != 0 {
		t.Errorf("completed job re-executed %d times", ran["done-before-crash"])
	}
	if ran["was-running"] != 1 || ran["was-queued"] != 1 {
		t.Errorf("recovered executions = %v, want exactly once each", ran)
	}
	// Attempt accounting continues across the crash: the re-run of the
	// mid-flight job is attempt 2.
	if got, _ := m.Get("job-000002"); got.Attempt != 2 {
		t.Errorf("mid-flight job attempt = %d, want 2 (1 before crash + 1 after)", got.Attempt)
	}
	// New submissions never collide with recovered IDs.
	fresh, err := m.Submit(Spec{App: "new"})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID != "job-000004" {
		t.Errorf("post-recovery ID = %s, want job-000004", fresh.ID)
	}
}

func TestManagerSubmitDurableBeforeAck(t *testing.T) {
	path := tmpJournal(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	cfg := testConfig(func(ctx context.Context, spec Spec) (Result, error) {
		<-block
		return Result{}, nil
	})
	cfg.Journal = j
	m := startManager(t, cfg)
	defer close(block)
	job, err := m.Submit(Spec{App: "stream"})
	if err != nil {
		t.Fatal(err)
	}
	// The accepted record is on disk before Submit returned.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), fmt.Sprintf(`"id":"%s","state":"accepted"`, job.ID)) {
		t.Fatalf("journal after ack lacks accepted record:\n%s", data)
	}
}

// TestAcceptedBeforeVisibleToWorkers: a job reaches the queue only
// after its accepted record is journaled and reported, so a worker can
// never journal or report it running first. The hook runs during the
// accepted report, with no workers started, and must find the record
// on disk and the queue still empty.
func TestAcceptedBeforeVisibleToWorkers(t *testing.T) {
	path := tmpJournal(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	cfg := testConfig(okRunner)
	cfg.Journal = j
	var m *Manager
	reported := false
	cfg.OnTransition = func(job Job) {
		if job.State != StateAccepted {
			return
		}
		reported = true
		if d := m.QueueDepth(); d != 0 {
			t.Errorf("queue depth %d while the accepted record was being reported; a worker could run the job first", d)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), fmt.Sprintf(`"id":"%s","state":"accepted"`, job.ID)) {
			t.Errorf("accepted reported before it was journaled:\n%s", data)
		}
	}
	m, err = NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(Spec{App: "stream"}); err != nil {
		t.Fatal(err)
	}
	if !reported {
		t.Fatal("the accepted transition was not reported")
	}
	if d := m.QueueDepth(); d != 1 {
		t.Errorf("queue depth %d after Submit, want 1", d)
	}
}

func TestNewManagerRequiresRunner(t *testing.T) {
	if _, err := NewManager(Config{}); err == nil {
		t.Fatal("NewManager without Runner passed")
	}
}

func TestManagerConcurrentLoad(t *testing.T) {
	cfg := testConfig(okRunner)
	cfg.Workers = 4
	cfg.QueueCap = 256
	m := startManager(t, cfg)
	const n = 100
	ids := make([]string, 0, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job, err := m.Submit(Spec{App: "stream"})
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			ids = append(ids, job.ID)
			mu.Unlock()
		}()
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate job id %s", id)
		}
		seen[id] = true
		if got := waitTerminal(t, m, id); got.State != StateDone {
			t.Fatalf("job %s = %+v", id, got)
		}
	}
}
