package jobs

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fibersim/internal/obs"
)

func testTracer(t *testing.T) *obs.Tracer {
	t.Helper()
	tr, err := obs.NewTracer(obs.TracerConfig{Now: time.Now, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// spanNames collects the names of a trace's spans in export order.
func spanNames(doc *obs.Trace) []string {
	out := make([]string, 0, len(doc.Spans))
	for _, sp := range doc.Spans {
		out = append(out, sp.Name)
	}
	return out
}

// TestTracedJobLifecycleSpans drives one successful job under a trace
// and requires the span set the acceptance criteria name: admission is
// the transport's span (not tested here), then queue-wait, attempt,
// the runner's own child, and the journal writes, with the root ended
// by the terminal transition.
func TestTracedJobLifecycleSpans(t *testing.T) {
	tracer := testTracer(t)
	journal, _, err := OpenJournal(filepath.Join(t.TempDir(), "j.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()

	runner := func(ctx context.Context, spec Spec) (Result, error) {
		// The harness-side pattern: hang the run span under the
		// attempt span that rides the context.
		run := obs.SpanFromContext(ctx).StartChild("run")
		defer run.End()
		if run == nil {
			t.Error("attempt span missing from runner context")
		}
		return Result{TimeSeconds: 1}, nil
	}
	cfg := testConfig(runner)
	cfg.Journal = journal
	m := startManager(t, cfg)

	root := tracer.StartTrace("job", obs.SpanContext{})
	job, err := m.SubmitTraced(Spec{App: "stream"}, root)
	if err != nil {
		t.Fatal(err)
	}
	if job.TraceID != root.Context().TraceID.String() {
		t.Fatalf("job trace id %q != root %q", job.TraceID, root.Context().TraceID)
	}
	done := waitTerminal(t, m, job.ID)
	if done.State != StateDone {
		t.Fatalf("state = %s: %s", done.State, done.Err)
	}

	// The terminal transition ends the root; the terminal state is
	// published a hair before the span closes, so poll for the
	// finalized trace rather than expecting it instantly.
	var doc *obs.Trace
	waitFor(t, "trace finalized", func() bool {
		var ok bool
		doc, ok = tracer.Trace(job.TraceID)
		return ok
	})
	if err := doc.Validate(); err != nil {
		t.Fatalf("job trace invalid: %v", err)
	}
	want := map[string]int{"job": 1, "queue-wait": 1, "attempt": 1, "run": 1, "journal-append": 3}
	got := map[string]int{}
	for _, name := range spanNames(doc) {
		got[name]++
	}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("span %q count = %d, want %d (all spans: %v)", name, got[name], n, spanNames(doc))
		}
	}
	if doc.OpenSpans != 0 {
		t.Errorf("open spans = %d, want 0", doc.OpenSpans)
	}
	// The journal's accepted record carries the trace id for triage.
	_, recs, err := OpenJournal(journal.path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].State != StateAccepted || recs[0].TraceID != job.TraceID {
		t.Errorf("accepted record trace id: %+v", recs[0])
	}
}

// TestTracedRetrySpans requires backoff sleeps and failed attempts to
// appear as spans.
func TestTracedRetrySpans(t *testing.T) {
	tracer := testTracer(t)
	var calls int
	var mu sync.Mutex
	runner := func(ctx context.Context, spec Spec) (Result, error) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls == 1 {
			return Result{}, errors.New("transient")
		}
		return Result{}, nil
	}
	cfg := testConfig(runner)
	cfg.MaxRetries = 2
	m := startManager(t, cfg)

	root := tracer.StartTrace("job", obs.SpanContext{})
	job, err := m.SubmitTraced(Spec{App: "stream"}, root)
	if err != nil {
		t.Fatal(err)
	}
	if done := waitTerminal(t, m, job.ID); done.State != StateDone {
		t.Fatalf("state = %s: %s", done.State, done.Err)
	}
	var doc *obs.Trace
	waitFor(t, "trace finalized", func() bool {
		var ok bool
		doc, ok = tracer.Trace(job.TraceID)
		return ok
	})
	counts := map[string]int{}
	for _, name := range spanNames(doc) {
		counts[name]++
	}
	if counts["attempt"] != 2 || counts["backoff"] != 1 {
		t.Errorf("attempt/backoff spans = %d/%d, want 2/1 (%v)",
			counts["attempt"], counts["backoff"], spanNames(doc))
	}
	var failed, ok2 bool
	for _, sp := range doc.Spans {
		if sp.Name != "attempt" {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == "outcome" && a.Value == "error" {
				failed = true
			}
			if a.Key == "outcome" && a.Value == "ok" {
				ok2 = true
			}
		}
	}
	if !failed || !ok2 {
		t.Errorf("attempt outcomes missing: failed=%v ok=%v", failed, ok2)
	}
}

// TestQueueWaitHistogram pins satellite behaviour: the manager records
// queue wait on the injectable clock even for untraced jobs.
func TestQueueWaitHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	block := make(chan struct{})
	runner := func(ctx context.Context, spec Spec) (Result, error) {
		<-block
		return Result{}, nil
	}
	cfg := testConfig(runner)
	cfg.Workers = 1
	cfg.Registry = reg
	m := startManager(t, cfg)

	a, err := m.Submit(Spec{App: "stream"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(Spec{App: "stream"})
	if err != nil {
		t.Fatal(err)
	}
	close(block)
	waitTerminal(t, m, a.ID)
	waitTerminal(t, m, b.ID)

	h := reg.Histogram("fiberd_jobs_queue_wait_seconds", "", obs.TimeBuckets(), nil)
	if h.Count() != 2 {
		t.Errorf("queue wait observations = %d, want 2", h.Count())
	}
	if h.Sum() < 0 {
		t.Errorf("queue wait sum = %g negative", h.Sum())
	}
	ha := reg.Histogram("fiberd_job_seconds", "", obs.TimeBuckets(), nil)
	if ha.Count() != 2 {
		t.Errorf("attempt duration observations = %d, want 2", ha.Count())
	}
}

// TestOnTransitionHook requires a snapshot per state change, in order,
// without deadlocking against manager methods called from the hook.
func TestOnTransitionHook(t *testing.T) {
	var mu sync.Mutex
	var states []State
	cfg := testConfig(func(ctx context.Context, spec Spec) (Result, error) {
		return Result{}, nil
	})
	var m *Manager
	cfg.OnTransition = func(j Job) {
		mu.Lock()
		states = append(states, j.State)
		mu.Unlock()
		if m != nil {
			m.QueueDepth() // must not deadlock
		}
	}
	m = startManager(t, cfg)
	job, err := m.Submit(Spec{App: "stream"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, job.ID)
	waitFor(t, "three transitions", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(states) >= 3
	})
	mu.Lock()
	defer mu.Unlock()
	want := []State{StateAccepted, StateRunning, StateDone}
	for i, s := range want {
		if states[i] != s {
			t.Fatalf("transitions = %v, want %v", states, want)
		}
	}
}

// TestSubmitTracedRejectionLeavesSpanOwnership: on a shed the span
// must still be usable by the caller (not ended by the manager).
func TestSubmitTracedRejectionLeavesSpanOwnership(t *testing.T) {
	tracer := testTracer(t)
	block := make(chan struct{})
	defer close(block)
	cfg := testConfig(func(ctx context.Context, spec Spec) (Result, error) {
		<-block
		return Result{}, nil
	})
	cfg.QueueCap = 1
	cfg.Workers = 1
	m := startManager(t, cfg)
	if _, err := m.Submit(Spec{App: "stream"}); err != nil {
		t.Fatal(err)
	}
	// Wait until the worker holds the first job so the queue bound is
	// deterministic, then fill the queue and overflow it.
	waitFor(t, "first job running", func() bool {
		jobs := m.Jobs(0)
		return len(jobs) > 0 && jobs[0].State == StateRunning
	})
	if _, err := m.Submit(Spec{App: "stream"}); err != nil {
		t.Fatal(err)
	}
	root := tracer.StartTrace("job", obs.SpanContext{})
	_, err := m.SubmitTraced(Spec{App: "stream"}, root)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want queue full", err)
	}
	// Caller still owns the span: annotate and end it.
	root.SetAttr("outcome", "shed")
	root.End()
	doc, ok := tracer.Trace(root.Context().TraceID.String())
	if !ok {
		t.Fatal("rejected-submission trace not finalized by caller End")
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
}
