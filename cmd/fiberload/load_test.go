package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"fibersim/internal/jobs"
	"fibersim/internal/obs"
)

func TestParseMix(t *testing.T) {
	mix, err := parseMix("stream:3, mvmc ,ffvc:2", "test")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 3 || mix[0].weight != 3 || mix[1].weight != 1 || mix[2].spec.App != "ffvc" {
		t.Errorf("mix = %+v", mix)
	}
	if mix[0].spec.Size != "test" {
		t.Errorf("size not applied: %+v", mix[0].spec)
	}
	for _, bad := range []string{"", "stream:0", "stream:-1", "stream:x"} {
		if _, err := parseMix(bad, "test"); err == nil {
			t.Errorf("mix %q parsed", bad)
		}
	}
}

func TestPercentiles(t *testing.T) {
	var samples []float64
	for i := 1; i <= 100; i++ {
		samples = append(samples, float64(i))
	}
	p := percentiles(samples)
	if p.P50 != 50 || p.P95 != 95 || p.P99 != 99 || p.Max != 100 {
		t.Errorf("percentiles = %+v", p)
	}
	if math.Abs(p.Mean-50.5) > 1e-9 {
		t.Errorf("mean = %g", p.Mean)
	}
	if got := percentiles(nil); got != (Percentiles{}) {
		t.Errorf("empty percentiles = %+v", got)
	}
	one := percentiles([]float64{0.25})
	if one.P50 != 0.25 || one.P99 != 0.25 {
		t.Errorf("single-sample percentiles = %+v", one)
	}
}

// manualClock only moves when advance is called, so the stub can build
// traces with exact span durations.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *manualClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// stubFiberd fakes the three endpoints fiberload touches. Every job
// terminates done after `lag` status polls; shedEvery>0 makes every
// N-th submission a 429. Each accepted job gets a real finalized trace
// with queue-wait exactly 2ms and run exactly 3ms under the manual
// clock. cachedEvery>0 answers every N-th submission 200 from a pretend
// result cache; coalesceEvery>0 attaches every N-th submission to the
// most recently accepted job with coalesced:true.
type stubFiberd struct {
	mu            sync.Mutex
	clock         *manualClock
	tracer        *obs.Tracer
	jobs          map[string]int    // id -> polls remaining until terminal
	traces        map[string]string // id -> trace id
	submits       int
	lag           int
	shedEvery     int
	cachedEvery   int
	coalesceEvery int
	lastID        string
}

func newStubFiberd(t *testing.T, lag, shedEvery int) *stubFiberd {
	t.Helper()
	clock := &manualClock{t: time.Unix(0, 0)}
	tracer, err := obs.NewTracer(obs.TracerConfig{Now: clock.now, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return &stubFiberd{clock: clock, tracer: tracer, jobs: map[string]int{},
		traces: map[string]string{}, lag: lag, shedEvery: shedEvery}
}

func (f *stubFiberd) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.submits++
		if f.shedEvery > 0 && f.submits%f.shedEvery == 0 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "queue full", http.StatusTooManyRequests)
			return
		}
		var spec jobs.Spec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil || spec.App == "" {
			http.Error(w, "bad spec", http.StatusBadRequest)
			return
		}
		if f.cachedEvery > 0 && f.submits%f.cachedEvery == 0 {
			job := jobs.Job{ID: fmt.Sprintf("cached-%06d", f.submits), Spec: spec,
				State: jobs.StateDone, Cached: true,
				Result: &jobs.Result{TimeSeconds: 1.25, GFlops: 5, Verified: true}}
			w.WriteHeader(http.StatusOK)
			json.NewEncoder(w).Encode(job)
			return
		}
		if f.coalesceEvery > 0 && f.submits%f.coalesceEvery == 0 && f.lastID != "" {
			job := jobs.Job{ID: f.lastID, Spec: spec,
				State: jobs.StateRunning, Coalesced: true}
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(job)
			return
		}
		id := fmt.Sprintf("job-%06d", f.submits)
		root := f.tracer.StartTrace("job", obs.SpanContext{})
		qw := root.StartChild("queue-wait")
		f.clock.advance(2 * time.Millisecond)
		qw.End()
		run := root.StartChild("run")
		f.clock.advance(3 * time.Millisecond)
		run.End()
		root.End()
		f.jobs[id] = f.lag
		f.traces[id] = root.Context().TraceID.String()
		f.lastID = id
		job := jobs.Job{ID: id, Spec: spec, State: jobs.StateAccepted,
			TraceID: f.traces[id]}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(job)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		id := r.PathValue("id")
		left, ok := f.jobs[id]
		if !ok {
			http.Error(w, "no such job", http.StatusNotFound)
			return
		}
		job := jobs.Job{ID: id, State: jobs.StateRunning, TraceID: f.traces[id]}
		if left <= 0 {
			job.State = jobs.StateDone
		} else {
			f.jobs[id] = left - 1
		}
		json.NewEncoder(w).Encode(job)
	})
	mux.HandleFunc("GET /traces/{id}", func(w http.ResponseWriter, r *http.Request) {
		tr, ok := f.tracer.Trace(r.PathValue("id"))
		if !ok {
			http.Error(w, "no such trace", http.StatusNotFound)
			return
		}
		tr.Encode(w)
	})
	return mux
}

func TestLoaderEndToEnd(t *testing.T) {
	stub := newStubFiberd(t, 2, 0)
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	l := &loader{
		base:    ts.URL,
		client:  ts.Client(),
		mix:     []weightedSpec{{spec: jobs.Spec{App: "stream", Size: "test"}, weight: 1}},
		workers: 4,
		total:   20,
		poll:    time.Millisecond,
		seed:    1,
	}
	l.run(context.Background())
	split := l.sampleTraces(context.Background(), 10)
	rep := l.report(split)

	if rep.Accepted != 20 || rep.Errors != 0 || rep.Shed429 != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.JobsDone != 20 || rep.JobsFailed != 0 {
		t.Errorf("jobs = %d done %d failed", rep.JobsDone, rep.JobsFailed)
	}
	if rep.Latency.P99 <= 0 || rep.Latency.P50 > rep.Latency.Max {
		t.Errorf("latency = %+v", rep.Latency)
	}
	if rep.Admission.P99 <= 0 {
		t.Errorf("admission = %+v", rep.Admission)
	}
	// The split is the acceptance-criterion number: fiberload must
	// attribute latency to queue wait vs run from the traces. The stub
	// builds every trace with queue-wait=2ms and run=3ms exactly.
	if rep.Split.Sampled != 10 {
		t.Fatalf("sampled = %d, want 10", rep.Split.Sampled)
	}
	if math.Abs(rep.Split.QueueWaitSeconds-0.002) > 1e-9 {
		t.Errorf("queue wait = %gs, want 0.002", rep.Split.QueueWaitSeconds)
	}
	if math.Abs(rep.Split.RunSeconds-0.003) > 1e-9 {
		t.Errorf("run = %gs, want 0.003", rep.Split.RunSeconds)
	}

	var b strings.Builder
	if err := rep.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"20 accepted", "queue-wait 0.0020s", "run 0.0030s", "p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
}

func TestLoaderCountsShed(t *testing.T) {
	stub := newStubFiberd(t, 0, 3) // every 3rd submission is shed
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	l := &loader{
		base:    ts.URL,
		client:  ts.Client(),
		mix:     []weightedSpec{{spec: jobs.Spec{App: "stream"}, weight: 1}},
		workers: 2,
		total:   9,
		poll:    time.Millisecond,
		seed:    1,
	}
	l.run(context.Background())
	rep := l.report(TraceSplit{})
	if rep.Shed429 != 3 || rep.Accepted != 6 {
		t.Errorf("shed/accepted = %d/%d, want 3/6", rep.Shed429, rep.Accepted)
	}
	if math.Abs(rep.ShedRate-1.0/3.0) > 1e-9 {
		t.Errorf("shed rate = %g", rep.ShedRate)
	}
}

func TestLoaderCountsCachedAndCoalesced(t *testing.T) {
	stub := newStubFiberd(t, 0, 0)
	stub.cachedEvery = 2 // submissions 2, 4, 6 served 200 from cache
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	l := &loader{
		base:    ts.URL,
		client:  ts.Client(),
		mix:     []weightedSpec{{spec: jobs.Spec{App: "stream"}, weight: 1}},
		workers: 1,
		total:   6,
		poll:    time.Millisecond,
		seed:    1,
	}
	l.run(context.Background())
	rep := l.report(TraceSplit{})
	if rep.Requests != 6 || rep.Accepted != 6 || rep.Cached != 3 || rep.JobsDone != 6 || rep.Errors != 0 {
		t.Errorf("cached run: requests/accepted/cached/done/errors = %d/%d/%d/%d/%d, want 6/6/3/6/0",
			rep.Requests, rep.Accepted, rep.Cached, rep.JobsDone, rep.Errors)
	}
	// Cache serves are terminal at admission: their latency is the
	// POST round-trip, so every submission has a latency sample.
	if len(l.latencies) != 6 || len(l.admissions) != 6 {
		t.Errorf("cached run: %d latency and %d admission samples, want 6 each",
			len(l.latencies), len(l.admissions))
	}

	stub2 := newStubFiberd(t, 0, 0)
	stub2.coalesceEvery = 3 // submissions 3 and 6 attach to the last job
	ts2 := httptest.NewServer(stub2.handler())
	defer ts2.Close()

	l2 := &loader{
		base:    ts2.URL,
		client:  ts2.Client(),
		mix:     []weightedSpec{{spec: jobs.Spec{App: "stream"}, weight: 1}},
		workers: 1,
		total:   6,
		poll:    time.Millisecond,
		seed:    1,
	}
	l2.run(context.Background())
	rep2 := l2.report(TraceSplit{})
	if rep2.Accepted != 6 || rep2.Coalesced != 2 || rep2.JobsDone != 6 {
		t.Errorf("coalesced run: accepted/coalesced/done = %d/%d/%d, want 6/2/6",
			rep2.Accepted, rep2.Coalesced, rep2.JobsDone)
	}
}

func TestVerdictGates(t *testing.T) {
	ok := Report{Accepted: 10, Latency: Percentiles{P99: 0.5}}
	if code := verdict(ok, time.Second, 0, os.Stderr); code != 0 {
		t.Errorf("passing report failed: %d", code)
	}
	if code := verdict(Report{Accepted: 0}, 0, 0, os.Stderr); code != 1 {
		t.Error("zero-accepted run passed")
	}
	if code := verdict(Report{Accepted: 5, Errors: 2}, 0, 1, os.Stderr); code != 1 {
		t.Error("error overflow passed")
	}
	if code := verdict(Report{Accepted: 5, Errors: 2}, 0, 2, os.Stderr); code != 0 {
		t.Error("tolerated errors failed")
	}
	slow := Report{Accepted: 10, Latency: Percentiles{P99: 2.5}}
	if code := verdict(slow, time.Second, 0, os.Stderr); code != 1 {
		t.Error("slow p99 passed")
	}
}

func TestFetchRuntimeAndDiff(t *testing.T) {
	var calls int
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/runtime" {
			http.NotFound(w, r)
			return
		}
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		json.NewEncoder(w).Encode(obs.RuntimeSnapshot{
			SampledAt:              "2023-11-14T22:13:20Z",
			HeapLiveBytes:          uint64(n) << 20,
			Goroutines:             int64(4 + n),
			GCCycles:               uint64(10 * n),
			AllocBytes:             uint64(1000 * n),
			GCPauseSeconds:         0.001 * float64(n),
			SchedLatencyP99Seconds: 1e-6,
		})
	}))
	defer ts.Close()

	l := &loader{base: ts.URL, client: ts.Client()}
	before, ok := l.fetchRuntime(context.Background())
	if !ok {
		t.Fatal("fetchRuntime failed against a serving endpoint")
	}
	after, ok := l.fetchRuntime(context.Background())
	if !ok {
		t.Fatal("second fetchRuntime failed")
	}
	d := diffRuntime(before, after)
	if d.GCCycles != 10 || d.AllocBytes != 1000 {
		t.Errorf("delta gc/alloc = %d/%d, want 10/1000", d.GCCycles, d.AllocBytes)
	}
	if math.Abs(d.GCPauseSeconds-0.001) > 1e-12 {
		t.Errorf("delta pause = %g, want 0.001", d.GCPauseSeconds)
	}
	if d.HeapLiveBytes != 2<<20 || d.Goroutines != 6 {
		t.Errorf("end state heap/goroutines = %d/%d, want %d/6", d.HeapLiveBytes, d.Goroutines, 2<<20)
	}

	// A fiberd without -runtime-metrics answers 404; the loader shrugs.
	l404 := &loader{base: ts.URL + "/missing", client: ts.Client()}
	if _, ok := l404.fetchRuntime(context.Background()); ok {
		t.Error("fetchRuntime reported ok against a 404 endpoint")
	}
}

func TestDiffRuntimeCounterReset(t *testing.T) {
	// A server restart mid-run resets the cumulative counters; the diff
	// restarts the baseline at the after value instead of going negative.
	before := obs.RuntimeSnapshot{GCCycles: 100, AllocBytes: 5000, GCPauseSeconds: 3}
	after := obs.RuntimeSnapshot{GCCycles: 13, AllocBytes: 1500, GCPauseSeconds: 0.75}
	d := diffRuntime(before, after)
	if d.GCCycles != 13 || d.AllocBytes != 1500 {
		t.Errorf("reset delta gc/alloc = %d/%d, want 13/1500", d.GCCycles, d.AllocBytes)
	}
	if d.GCPauseSeconds != 0 {
		t.Errorf("reset delta pause = %g, want 0 (negative clamped)", d.GCPauseSeconds)
	}
}
