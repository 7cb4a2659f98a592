package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fibersim/internal/jobs"
	"fibersim/internal/obs"
)

// fakeClock advances one millisecond per now() call, making request
// latencies — and therefore the whole /metrics exposition — exact.
func fakeClock() func() time.Time {
	base := time.Unix(0, 0)
	var ticks int
	return func() time.Time {
		ticks++
		return base.Add(time.Duration(ticks) * time.Millisecond)
	}
}

func testServer(t *testing.T) (*server, http.Handler) {
	t.Helper()
	reg := obs.NewRegistry()
	jm, err := jobs.NewManager(jobs.Config{
		Runner:   func(context.Context, jobs.Spec) (jobs.Result, error) { return jobs.Result{}, nil },
		QueueCap: 16,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(reg, t.TempDir(), jm, nil)
	s.now = fakeClock()
	tracer, err := obs.NewTracer(obs.TracerConfig{Now: s.now, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.tracer = tracer
	return s, s.handler()
}

// goldenMetrics is the verbatim /metrics body after exactly one
// /healthz request under the fake clock (1 ms latency). It pins the
// Prometheus text exposition format: HELP/TYPE headers, sorted
// families, sorted labels, cumulative le buckets with +Inf, sum and
// count. Regenerate by hand if the metric set changes deliberately.
const goldenMetrics = `# HELP fiberd_http_request_seconds Wall-clock request latency.
# TYPE fiberd_http_request_seconds histogram
fiberd_http_request_seconds_bucket{path="/healthz",le="1e-09"} 0
fiberd_http_request_seconds_bucket{path="/healthz",le="1e-08"} 0
fiberd_http_request_seconds_bucket{path="/healthz",le="1e-07"} 0
fiberd_http_request_seconds_bucket{path="/healthz",le="1e-06"} 0
fiberd_http_request_seconds_bucket{path="/healthz",le="9.999999999999999e-06"} 0
fiberd_http_request_seconds_bucket{path="/healthz",le="9.999999999999999e-05"} 0
fiberd_http_request_seconds_bucket{path="/healthz",le="0.001"} 1
fiberd_http_request_seconds_bucket{path="/healthz",le="0.01"} 1
fiberd_http_request_seconds_bucket{path="/healthz",le="0.1"} 1
fiberd_http_request_seconds_bucket{path="/healthz",le="1"} 1
fiberd_http_request_seconds_bucket{path="/healthz",le="10"} 1
fiberd_http_request_seconds_bucket{path="/healthz",le="100"} 1
fiberd_http_request_seconds_bucket{path="/healthz",le="+Inf"} 1
fiberd_http_request_seconds_sum{path="/healthz"} 0.001
fiberd_http_request_seconds_count{path="/healthz"} 1
# HELP fiberd_http_requests_total HTTP requests served, by route and status code.
# TYPE fiberd_http_requests_total counter
fiberd_http_requests_total{code="200",path="/healthz"} 1
# HELP fiberd_http_responses_total HTTP responses by route and status class (2xx..5xx).
# TYPE fiberd_http_responses_total counter
fiberd_http_responses_total{class="2xx",path="/healthz"} 1
# HELP fiberd_jobs_queue_capacity Admission queue bound; submissions beyond it are shed with 429.
# TYPE fiberd_jobs_queue_capacity gauge
fiberd_jobs_queue_capacity 16
# HELP fiberd_jobs_queue_depth Jobs accepted and waiting for a worker.
# TYPE fiberd_jobs_queue_depth gauge
fiberd_jobs_queue_depth 0
# HELP fiberd_jobs_running Jobs currently executing an attempt.
# TYPE fiberd_jobs_running gauge
fiberd_jobs_running 0
# HELP fiberd_trace_spans_dropped Spans dropped at per-trace capacity or after finalization, cumulative.
# TYPE fiberd_trace_spans_dropped gauge
fiberd_trace_spans_dropped 0
# HELP fiberd_traces_active Traces with an open root span.
# TYPE fiberd_traces_active gauge
fiberd_traces_active 0
# HELP fiberd_traces_evicted Finished traces evicted from the ring, cumulative.
# TYPE fiberd_traces_evicted gauge
fiberd_traces_evicted 0
# HELP fiberd_traces_stored Finished traces held in the ring.
# TYPE fiberd_traces_stored gauge
fiberd_traces_stored 0
`

func TestMetricsGolden(t *testing.T) {
	_, h := testServer(t)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `"status":"ok"`) {
		t.Fatalf("healthz = %d %q", rr.Code, rr.Body.String())
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rr.Code)
	}
	if got := rr.Body.String(); got != goldenMetrics {
		t.Errorf("metrics exposition drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, goldenMetrics)
	}
}

func writeManifest(t *testing.T, dir, name string, mutate func(*obs.Manifest)) {
	t.Helper()
	m := &obs.Manifest{
		Schema: obs.ManifestSchema,
		App:    "stream",
		Config: obs.RunInfo{
			Machine: "a64fx", Procs: 4, Threads: 12,
			Alloc: "block", Bind: "stride1",
			Compiler: "as-is", Size: "test", Seed: 20210901,
		},
		Verified:    true,
		TimeSeconds: 0.25,
		GFlops:      123.4,
	}
	if mutate != nil {
		mutate(m)
	}
	if err := m.WriteFile(filepath.Join(dir, name)); err != nil {
		t.Fatal(err)
	}
}

func TestRunsListingAndFetch(t *testing.T) {
	s, h := testServer(t)
	writeManifest(t, s.manifestDir, "a.json", nil)
	writeManifest(t, s.manifestDir, "b.json", func(m *obs.Manifest) {
		m.App = "mvmc"
		m.Verified = false
	})
	// A corrupt file must be skipped, not kill the listing.
	if err := os.WriteFile(filepath.Join(s.manifestDir, "junk.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/runs", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/runs = %d: %s", rr.Code, rr.Body.String())
	}
	var entries []runEntry
	if err := json.Unmarshal(rr.Body.Bytes(), &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].File != "a.json" || entries[1].App != "mvmc" {
		t.Errorf("listing = %+v", entries)
	}
	if entries[0].Config != "a64fx 4x12 as-is test" {
		t.Errorf("config label = %q", entries[0].Config)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/runs/a.json", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/runs/a.json = %d", rr.Code)
	}
	m, err := obs.ParseManifest(rr.Body)
	if err != nil || m.App != "stream" {
		t.Errorf("served manifest does not parse back: %v %+v", err, m)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/runs/nope.json", nil))
	if rr.Code != http.StatusNotFound {
		t.Errorf("missing manifest = %d, want 404", rr.Code)
	}

	// Path traversal must be rejected, not resolved.
	rr = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/runs/name", nil)
	req.SetPathValue("name", "../a.json")
	s.handleRun(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Errorf("traversal name = %d, want 400", rr.Code)
	}

	// The corrupt manifest surfaced in the error counter.
	if c := s.reg.Counter("fiberd_manifest_errors_total", "", nil).Value(); c != 1 {
		t.Errorf("manifest error counter = %g, want 1", c)
	}
}

func TestServeGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := newServer(obs.NewRegistry(), t.TempDir(), nil, nil)
	done := make(chan int, 1)
	var errb strings.Builder
	go func() { done <- serve(ctx, "127.0.0.1:0", s.handler(), time.Second, &errb, nil) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("shutdown exit = %d\n%s", code, errb.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not drain within 5s")
	}
	if !strings.Contains(errb.String(), "clean shutdown") {
		t.Errorf("missing shutdown log:\n%s", errb.String())
	}
}

func TestServeBadAddressFails(t *testing.T) {
	var errb strings.Builder
	s := newServer(obs.NewRegistry(), t.TempDir(), nil, nil)
	if code := serve(context.Background(), "256.0.0.1:bogus", s.handler(), time.Second, &errb, nil); code != 1 {
		t.Fatalf("bad address exit = %d\n%s", code, errb.String())
	}
}

// TestDebugPprof: the process's own profiles are served only under
// -pprof, and then unmetered.
func TestDebugPprof(t *testing.T) {
	s, h := testServer(t)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ without -pprof = %d, want 404", rr.Code)
	}

	s.pprofOn = true
	h = s.handler()
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "goroutine") {
		t.Fatalf("/debug/pprof/ with -pprof = %d, body %q", rr.Code, rr.Body.String())
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if strings.Contains(rr.Body.String(), "/debug/pprof") {
		t.Error("pprof traffic reached the serving metrics")
	}
}
