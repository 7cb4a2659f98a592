package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fibersim/internal/jobs"
	"fibersim/internal/obs"
)

// tracedServer mirrors main's production wiring: a tracer keeping the
// newest ring finished traces (0 keeps the tracer's default), a real
// journal, and the Execute-based runner (so run spans and manifest
// links are the real thing, not stubs).
func tracedServer(t *testing.T, cfg jobs.Config, ring int) (*server, http.Handler, *jobs.Manager) {
	t.Helper()
	reg := obs.NewRegistry()
	tracer, err := obs.NewTracer(obs.TracerConfig{Now: time.Now, Seed: 42, Capacity: ring})
	if err != nil {
		t.Fatal(err)
	}
	journal, _, err := jobs.OpenJournal(filepath.Join(t.TempDir(), "j.journal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journal.Close() })

	if cfg.Runner == nil {
		cfg.Runner = newRunner("", slog.New(slog.NewJSONHandler(io.Discard, nil)))
	}
	cfg.Registry = reg
	cfg.Journal = journal
	jm, err := jobs.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jm.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := jm.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	s := newServer(reg, t.TempDir(), jm, resolveSpec)
	s.tracer = tracer
	return s, s.handler(), jm
}

// fetchTrace polls GET /traces/{id} until the trace is finalized (the
// root span closes a hair after the terminal state becomes visible).
func fetchTrace(t *testing.T, h http.Handler, id string) *obs.Trace {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/traces/"+id, nil))
		if rr.Code == http.StatusOK {
			tr, err := obs.ParseTrace(rr.Body)
			if err != nil {
				t.Fatalf("served trace does not parse: %v", err)
			}
			return tr
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("trace %s never appeared", id)
	return nil
}

// TestTracedSubmitEndToEnd is the acceptance path: one POST /jobs must
// yield a retrievable trace covering admission through queue wait,
// attempt, harness run and the terminal journal write, with the run
// span linking back from the saved manifest.
func TestTracedSubmitEndToEnd(t *testing.T) {
	s, h, _ := tracedServer(t, jobs.Config{QueueCap: 16, Workers: 2}, 0)

	// Submit as a child of a remote trace, like a CI driver would.
	remote := "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	rr := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/jobs", strings.NewReader(`{"app":"stream"}`))
	req.Header.Set("traceparent", remote)
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rr.Code, rr.Body.String())
	}
	var job jobs.Job
	if err := json.Unmarshal(rr.Body.Bytes(), &job); err != nil {
		t.Fatal(err)
	}
	if job.TraceID != "0123456789abcdef0123456789abcdef" {
		t.Fatalf("job trace id %q did not adopt the remote trace", job.TraceID)
	}
	if tp := rr.Header().Get("traceparent"); !strings.Contains(tp, job.TraceID) {
		t.Errorf("response traceparent %q does not carry the trace id", tp)
	}

	done := waitJobState(t, h, job.ID)
	if done.State != jobs.StateDone {
		t.Fatalf("job = %+v", done)
	}
	tr := fetchTrace(t, h, job.TraceID)
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if tr.RemoteParent != "00f067aa0ba902b7" {
		t.Errorf("remote parent = %q", tr.RemoteParent)
	}
	names := map[string]int{}
	for _, sp := range tr.Spans {
		names[sp.Name]++
	}
	for _, want := range []string{"job", "queue-wait", "attempt", "run", "journal-append"} {
		if names[want] == 0 {
			t.Errorf("trace missing %q span (have %v)", want, names)
		}
	}
	if tr.OpenSpans != 0 {
		t.Errorf("open spans = %d", tr.OpenSpans)
	}

	// The listing sees it, and the alternate formats render.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/traces", nil))
	var listing traceListing
	if err := json.Unmarshal(rr.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Traces) != 1 || listing.Traces[0].ID != job.TraceID {
		t.Errorf("listing = %+v", listing)
	}
	if listing.Stats.Stored != 1 {
		t.Errorf("stats = %+v", listing.Stats)
	}
	for _, format := range []string{"text", "chrome"} {
		rr = httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/traces/"+job.TraceID+"?format="+format, nil))
		if rr.Code != http.StatusOK || rr.Body.Len() == 0 {
			t.Errorf("format=%s = %d (%d bytes)", format, rr.Code, rr.Body.Len())
		}
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/traces/"+job.TraceID+"?format=yaml", nil))
	if rr.Code != http.StatusBadRequest {
		t.Errorf("format=yaml = %d, want 400", rr.Code)
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/traces/ffffffffffffffffffffffffffffffff", nil))
	if rr.Code != http.StatusNotFound {
		t.Errorf("missing trace = %d, want 404", rr.Code)
	}
	_ = s
}

// TestTracedShedEndsSpan: a 429'd submission must finalize its trace
// immediately (handler-owned span), annotated with the shed outcome.
func TestTracedShedEndsSpan(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	s, h, jm := tracedServer(t, jobs.Config{
		QueueCap: 1, Workers: 1,
		Runner: func(ctx context.Context, spec jobs.Spec) (jobs.Result, error) {
			<-block
			return jobs.Result{}, nil
		},
	}, 0)
	if rr := postJob(t, h, `{"app":"stream"}`); rr.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d", rr.Code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		list := jm.Jobs(0)
		if len(list) > 0 && list[0].State == jobs.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started running")
		}
		time.Sleep(time.Millisecond)
	}
	if rr := postJob(t, h, `{"app":"stream"}`); rr.Code != http.StatusAccepted {
		t.Fatalf("second submit = %d", rr.Code)
	}
	rr := postJob(t, h, `{"app":"stream"}`)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", rr.Code)
	}
	// The shed trace is already finalized: exactly one stored trace
	// (both admitted jobs are still open), with the outcome attr.
	traces := s.tracer.Traces()
	if len(traces) != 1 {
		t.Fatalf("stored traces = %d, want the shed one only", len(traces))
	}
	var outcome string
	for _, a := range traces[0].Spans[0].Attrs {
		if a.Key == "outcome" {
			outcome = a.Value
		}
	}
	if outcome != "shed-queue-full" {
		t.Errorf("shed outcome = %q", outcome)
	}
}
