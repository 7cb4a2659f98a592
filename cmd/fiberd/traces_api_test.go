package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"fibersim/internal/jobs"
	"fibersim/internal/obs"
)

// tracedServer mirrors main's production wiring: tracer with an
// OnSpanEnd feed into the event hub, OnTransition into the hub, a real
// journal, and the Execute-based runner (so run spans and manifest
// links are the real thing, not stubs).
func tracedServer(t *testing.T, cfg jobs.Config) (*server, http.Handler, *jobs.Manager) {
	t.Helper()
	reg := obs.NewRegistry()
	hub := newEventHub()
	tracer, err := obs.NewTracer(obs.TracerConfig{
		Now:  time.Now,
		Seed: 42,
		OnSpanEnd: func(sc obs.SpanContext, rec obs.SpanRecord) {
			hub.publish("trace:"+sc.TraceID.String(), jobEvent{
				Type: "span", Span: &rec, TraceID: sc.TraceID.String(),
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	journal, _, err := jobs.OpenJournal(filepath.Join(t.TempDir(), "j.journal"), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journal.Close() })

	if cfg.Runner == nil {
		cfg.Runner = newRunner("", slog.New(slog.NewJSONHandler(io.Discard, nil)))
	}
	cfg.Registry = reg
	cfg.Journal = journal
	cfg.OnTransition = func(job jobs.Job) {
		hub.publish("job:"+job.ID, jobEvent{Type: "state", Job: &job})
	}
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
	s := newServer(reg, t.TempDir(), "", time.Millisecond, jm, resolveSpec)
	s.tracer = tracer
	s.events = hub
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
	s, h, _ := tracedServer(t, jobs.Config{QueueCap: 16, Workers: 2})

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
	})
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

// sseEvents reads SSE events off a response body until the stream ends.
type sseEvent struct {
	name string
	data string
}

func readSSE(t *testing.T, body io.Reader) []sseEvent {
	t.Helper()
	var out []sseEvent
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		case line == "" && ev.name != "":
			out = append(out, ev)
			ev = sseEvent{}
		}
	}
	return out
}

// TestJobEventsSSE subscribes to a live job and requires the stream to
// deliver its transitions and span completions, then close itself at
// the root span's end.
func TestJobEventsSSE(t *testing.T) {
	release := make(chan struct{})
	_, h, _ := tracedServer(t, jobs.Config{
		QueueCap: 16, Workers: 1,
		Runner: func(ctx context.Context, spec jobs.Spec) (jobs.Result, error) {
			<-release
			return jobs.Result{TimeSeconds: 0.5, GFlops: 2, Verified: true}, nil
		},
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	rr := postJob(t, h, `{"app":"stream"}`)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit = %d", rr.Code)
	}
	var job jobs.Job
	if err := json.Unmarshal(rr.Body.Bytes(), &job); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	// Subscription is active; let the job finish. The stream must end
	// on its own (root span completion), so readSSE terminates.
	close(release)
	events := readSSE(t, resp.Body)

	var states []string
	spans := map[string]int{}
	var rootLast bool
	for i, ev := range events {
		switch ev.name {
		case "state":
			var e jobEvent
			if err := json.Unmarshal([]byte(ev.data), &e); err != nil || e.Job == nil {
				t.Fatalf("state event %q: %v", ev.data, err)
			}
			states = append(states, string(e.Job.State))
		case "span":
			var e jobEvent
			if err := json.Unmarshal([]byte(ev.data), &e); err != nil || e.Span == nil {
				t.Fatalf("span event %q: %v", ev.data, err)
			}
			spans[e.Span.Name]++
			rootLast = e.Span.Parent == "" && i == len(events)-1
		default:
			t.Errorf("unknown event %q", ev.name)
		}
	}
	if len(states) == 0 || states[0] != "accepted" && states[0] != "running" {
		t.Errorf("states = %v", states)
	}
	if states[len(states)-1] != "done" {
		t.Errorf("last state = %v", states)
	}
	// The blocked stub runner opens no "run" child; the manager-side
	// spans must still stream.
	if spans["attempt"] == 0 || spans["journal-append"] == 0 {
		t.Errorf("span events = %v", spans)
	}
	if !rootLast {
		t.Errorf("stream did not end on the root span completion: %v", events)
	}
}

// TestJobEventsTerminalReplay: subscribing after the job finished must
// deliver the final state plus a replay of the trace's spans, then
// close.
func TestJobEventsTerminalReplay(t *testing.T) {
	_, h, _ := tracedServer(t, jobs.Config{QueueCap: 16, Workers: 1})
	ts := httptest.NewServer(h)
	defer ts.Close()

	rr := postJob(t, h, `{"app":"stream"}`)
	var job jobs.Job
	if err := json.Unmarshal(rr.Body.Bytes(), &job); err != nil {
		t.Fatal(err)
	}
	waitJobState(t, h, job.ID)
	fetchTrace(t, h, job.TraceID) // trace finalized in the ring

	resp, err := http.Get(ts.URL + "/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body)
	if len(events) < 2 || events[0].name != "state" {
		t.Fatalf("replay events = %+v", events)
	}
	var e jobEvent
	if err := json.Unmarshal([]byte(events[0].data), &e); err != nil || e.Job.State != jobs.StateDone {
		t.Fatalf("replay state = %q", events[0].data)
	}
	spanCount := 0
	for _, ev := range events[1:] {
		if ev.name == "span" {
			spanCount++
		}
	}
	if spanCount < 4 {
		t.Errorf("replayed %d spans, want the full lifecycle", spanCount)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/jobs/job-999999/events", nil))
	if rr.Code != http.StatusNotFound {
		t.Errorf("missing job events = %d, want 404", rr.Code)
	}
}

// TestJobEventsNoGoroutineLeak mirrors the /runs/live leak test for
// the job event stream: clients dropped mid-stream must not strand
// handler goroutines, and their hub subscriptions must be released.
func TestJobEventsNoGoroutineLeak(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s, h, _ := tracedServer(t, jobs.Config{
		QueueCap: 16, Workers: 1,
		Runner: func(ctx context.Context, spec jobs.Spec) (jobs.Result, error) {
			<-release
			return jobs.Result{}, nil
		},
	})
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	rr := postJob(t, h, `{"app":"stream"}`)
	var job jobs.Job
	if err := json.Unmarshal(rr.Body.Bytes(), &job); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/jobs/"+job.ID+"/events", nil)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
		resp.Body.Close()
	}

	// Handler goroutines must unwind and every cancel() must release
	// its hub subscription (both lag the client drop slightly).
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.Gosched()
		s.events.mu.Lock()
		subs := len(s.events.subs)
		s.events.mu.Unlock()
		if n := runtime.NumGoroutine(); n <= before+5 && subs == 0 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("leak: goroutines before=%d now=%d, hub keys=%d\n%s",
				before, runtime.NumGoroutine(), subs, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
