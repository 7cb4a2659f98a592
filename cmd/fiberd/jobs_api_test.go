package main

import (
	"context"
	"encoding/json"
	"errors"
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

	_ "fibersim/internal/miniapps/all"
)

// apiServer builds a server around a manager with the given runner.
// start=false leaves the worker pool unstarted so submitted jobs stay
// queued — that is how the tests pin admission-control behavior
// without racing execution.
func apiServer(t *testing.T, cfg jobs.Config, start bool) (*server, http.Handler, *jobs.Manager) {
	t.Helper()
	if cfg.Runner == nil {
		cfg.Runner = func(context.Context, jobs.Spec) (jobs.Result, error) {
			return jobs.Result{TimeSeconds: 0.1, GFlops: 1, Verified: true}, nil
		}
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	jm, err := jobs.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if start {
		jm.Start()
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := jm.Drain(ctx); err != nil {
				t.Errorf("drain: %v", err)
			}
		})
	}
	s := newServer(cfg.Registry, t.TempDir(), jm, resolveSpec)
	return s, s.handler(), jm
}

func postJob(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/jobs", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rr, req)
	return rr
}

// waitJobState polls GET /jobs/{id} until the job reaches a terminal
// state.
func waitJobState(t *testing.T, h http.Handler, id string) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/jobs/"+id, nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d: %s", id, rr.Code, rr.Body.String())
		}
		var job jobs.Job
		if err := json.Unmarshal(rr.Body.Bytes(), &job); err != nil {
			t.Fatal(err)
		}
		if job.State.Terminal() {
			return job
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return jobs.Job{}
}

func TestSubmitJobLifecycle(t *testing.T) {
	_, h, _ := apiServer(t, jobs.Config{}, true)
	rr := postJob(t, h, `{"app":"stream"}`)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rr.Code, rr.Body.String())
	}
	var job jobs.Job
	if err := json.Unmarshal(rr.Body.Bytes(), &job); err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.State != jobs.StateAccepted {
		t.Fatalf("accepted body = %+v", job)
	}
	done := waitJobState(t, h, job.ID)
	if done.State != jobs.StateDone || done.Result == nil || !done.Result.Verified {
		t.Errorf("terminal job = %+v", done)
	}

	// The finished job shows up in the listing.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/jobs", nil))
	var list []jobs.Job
	if err := json.Unmarshal(rr.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != job.ID {
		t.Errorf("listing = %+v", list)
	}
}

func TestSubmitJobRejectsBadSpecs(t *testing.T) {
	_, h, _ := apiServer(t, jobs.Config{}, false)
	cases := []struct {
		name, body string
	}{
		{"malformed json", `{"app":`},
		{"unknown field", `{"app":"stream","cloud":"aws"}`},
		{"missing app", `{}`},
		{"unknown app", `{"app":"fortnite"}`},
		{"unknown machine", `{"app":"stream","machine":"cray1"}`},
		{"oversubscribed", `{"app":"stream","procs":48,"threads":48}`},
		{"bad fault", `{"app":"stream","fault":"chaos=yes"}`},
		{"tenant", `{"app":"stream","tenant":"alice"}`},
	}
	for _, tc := range cases {
		if rr := postJob(t, h, tc.body); rr.Code != http.StatusBadRequest {
			t.Errorf("%s: code = %d, want 400 (%s)", tc.name, rr.Code, rr.Body.String())
		}
	}
}

func TestJobsListLimit(t *testing.T) {
	_, h, _ := apiServer(t, jobs.Config{QueueCap: 256}, false)
	for _, body := range []string{`{"app":"stream"}`, `{"app":"stream"}`, `{"app":"mvmc"}`} {
		if rr := postJob(t, h, body); rr.Code != http.StatusAccepted {
			t.Fatalf("submit %s = %d", body, rr.Code)
		}
	}

	list := func(url string) []jobs.Job {
		t.Helper()
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", url, rr.Code, rr.Body.String())
		}
		var out []jobs.Job
		if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	if got := list("/jobs"); len(got) != 3 {
		t.Fatalf("GET /jobs returned %d jobs, want 3", len(got))
	}
	recent := list("/jobs?limit=2")
	if len(recent) != 2 || recent[0].Spec.App != "stream" || recent[1].Spec.App != "mvmc" {
		t.Fatalf("limit=2 returned %+v, want the 2 most recent ending with mvmc", recent)
	}
	// The default window caps the listing: a long-lived daemon's full
	// history no longer comes back on a bare GET /jobs.
	for i := 0; i < defaultJobsLimit; i++ {
		if rr := postJob(t, h, `{"app":"stream"}`); rr.Code != http.StatusAccepted {
			t.Fatalf("filler submit %d = %d", i, rr.Code)
		}
	}
	if got := list("/jobs"); len(got) != defaultJobsLimit {
		t.Fatalf("default listing returned %d jobs, want %d", len(got), defaultJobsLimit)
	}
	if got := list("/jobs?limit=0"); len(got) != defaultJobsLimit+3 {
		t.Fatalf("limit=0 returned %d jobs, want all %d", len(got), defaultJobsLimit+3)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/jobs?limit=x", nil))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("bad limit = %d, want 400", rr.Code)
	}
}

func TestSubmitJobCachedAndCoalescedResponses(t *testing.T) {
	cache, err := jobs.OpenResultCache("")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	_, h, _ := apiServer(t, jobs.Config{
		Cache:   cache,
		Workers: 1,
		Runner: func(ctx context.Context, spec jobs.Spec) (jobs.Result, error) {
			started <- struct{}{}
			<-release
			return jobs.Result{TimeSeconds: 1.25, GFlops: 5, Verified: true}, nil
		},
	}, true)

	first := postJob(t, h, `{"app":"stream"}`)
	if first.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d: %s", first.Code, first.Body.String())
	}
	var firstJob jobs.Job
	if err := json.Unmarshal(first.Body.Bytes(), &firstJob); err != nil {
		t.Fatal(err)
	}
	<-started

	// Duplicate while in flight: 202 + the same job, marked coalesced
	// (the retry budget differs, but it is not an experiment axis).
	dup := postJob(t, h, `{"app":"stream","max_retries":1}`)
	if dup.Code != http.StatusAccepted {
		t.Fatalf("coalesced submit = %d: %s", dup.Code, dup.Body.String())
	}
	var dupJob jobs.Job
	if err := json.Unmarshal(dup.Body.Bytes(), &dupJob); err != nil {
		t.Fatal(err)
	}
	if !dupJob.Coalesced || dupJob.ID != firstJob.ID {
		t.Fatalf("coalesced response %+v, want coalesced onto %s", dupJob, firstJob.ID)
	}

	close(release)
	waitJobState(t, h, firstJob.ID)

	// Duplicate after completion: 200 + the cached result, complete.
	cached := postJob(t, h, `{"app":"stream"}`)
	if cached.Code != http.StatusOK {
		t.Fatalf("cached submit = %d: %s", cached.Code, cached.Body.String())
	}
	var cachedJob jobs.Job
	if err := json.Unmarshal(cached.Body.Bytes(), &cachedJob); err != nil {
		t.Fatal(err)
	}
	if !cachedJob.Cached || cachedJob.State != jobs.StateDone {
		t.Fatalf("cached response %+v, want cached done", cachedJob)
	}
	if cachedJob.Result == nil || cachedJob.Result.TimeSeconds != 1.25 {
		t.Fatalf("cached result %+v, want the original", cachedJob.Result)
	}
}

func TestSubmitJobShedsOnFullQueue(t *testing.T) {
	// Workers never started: the first job occupies the whole queue.
	_, h, _ := apiServer(t, jobs.Config{QueueCap: 1}, false)
	if rr := postJob(t, h, `{"app":"stream"}`); rr.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d", rr.Code)
	}
	rr := postJob(t, h, `{"app":"stream"}`)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("overload submit = %d, want 429", rr.Code)
	}
	ra := rr.Header().Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	secs, err := json.Number(ra).Int64()
	if err != nil {
		t.Fatalf("Retry-After %q is not integral seconds: %v", ra, err)
	}
	if secs < 1 {
		t.Errorf("Retry-After = %d, want >= 1", secs)
	}
}

func TestSubmitJobWhileDraining(t *testing.T) {
	_, h, jm := apiServer(t, jobs.Config{}, true)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := jm.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if rr := postJob(t, h, `{"app":"stream"}`); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("draining submit = %d, want 503", rr.Code)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != http.StatusServiceUnavailable || !strings.Contains(rr.Body.String(), "draining") {
		t.Errorf("/readyz while draining = %d %s", rr.Code, rr.Body.String())
	}
}

func TestSubmitJobBreakerOpen(t *testing.T) {
	boom := errors.New("node on fire")
	_, h, _ := apiServer(t, jobs.Config{
		Runner: func(context.Context, jobs.Spec) (jobs.Result, error) {
			return jobs.Result{}, boom
		},
		MaxRetries:       0,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	}, true)

	rr := postJob(t, h, `{"app":"stream"}`)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit = %d", rr.Code)
	}
	var job jobs.Job
	if err := json.Unmarshal(rr.Body.Bytes(), &job); err != nil {
		t.Fatal(err)
	}
	failed := waitJobState(t, h, job.ID)
	if failed.State != jobs.StateFailed || !strings.Contains(failed.Err, "node on fire") {
		t.Fatalf("failed job = %+v", failed)
	}

	// One failure tripped the stream|a64fx breaker: readiness degrades
	// and further submissions for the key shed with 503 + Retry-After.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/readyz degraded = %d, want 200 (degraded still serves)", rr.Code)
	}
	var rd readiness
	if err := json.Unmarshal(rr.Body.Bytes(), &rd); err != nil {
		t.Fatal(err)
	}
	if rd.Status != "degraded" || rd.Breakers["stream|a64fx"] != "open" {
		t.Errorf("readiness = %+v", rd)
	}

	rr = postJob(t, h, `{"app":"stream"}`)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("breaker-open submit = %d, want 503", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("503 breaker response without Retry-After")
	}

	// A different (app, machine) key is unaffected by the tripped one.
	if rr := postJob(t, h, `{"app":"mvmc"}`); rr.Code != http.StatusAccepted {
		t.Errorf("independent key submit = %d, want 202", rr.Code)
	}
}

func TestReadyzReady(t *testing.T) {
	_, h, _ := apiServer(t, jobs.Config{}, false)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/readyz = %d", rr.Code)
	}
	var rd readiness
	if err := json.Unmarshal(rr.Body.Bytes(), &rd); err != nil {
		t.Fatal(err)
	}
	if rd.Status != "ready" || len(rd.Breakers) != 0 {
		t.Errorf("readiness = %+v", rd)
	}
}

func TestJobsAPIWithoutEngine(t *testing.T) {
	// Manifest-only mode: no manager wired at all.
	s := newServer(obs.NewRegistry(), t.TempDir(), nil, nil)
	h := s.handler()
	for _, req := range []*http.Request{
		httptest.NewRequest("POST", "/jobs", strings.NewReader(`{"app":"stream"}`)),
		httptest.NewRequest("GET", "/jobs", nil),
		httptest.NewRequest("GET", "/jobs/job-000001", nil),
		httptest.NewRequest("GET", "/readyz", nil),
	} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != http.StatusServiceUnavailable {
			t.Errorf("%s %s = %d, want 503", req.Method, req.URL.Path, rr.Code)
		}
	}
}

func TestJobNotFound(t *testing.T) {
	_, h, _ := apiServer(t, jobs.Config{}, false)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/jobs/job-999999", nil))
	if rr.Code != http.StatusNotFound {
		t.Errorf("missing job = %d, want 404", rr.Code)
	}
}

// TestRunSpecRunnerExecutes pins the production runner: a resolved
// spec actually runs a miniapp, reports a plausible result, and — with
// a save directory — leaves a valid manifest behind.
func TestRunSpecRunnerExecutes(t *testing.T) {
	dir := t.TempDir()
	logger := slog.New(slog.NewJSONHandler(io.Discard, nil))
	run := newRunner(dir, logger)
	res, err := run(context.Background(), jobs.Spec{App: "stream"})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeSeconds <= 0 || !res.Verified {
		t.Errorf("runner result = %+v", res)
	}
	names, err := filepath.Glob(filepath.Join(dir, "run-*.json"))
	if err != nil || len(names) != 1 {
		t.Fatalf("saved manifests = %v, err %v, want exactly one", names, err)
	}
	if m, err := obs.ReadManifestFile(names[0]); err != nil || m.App != "stream" {
		t.Errorf("saved manifest invalid: %v %+v", err, m)
	}
	if _, err := run(context.Background(), jobs.Spec{App: "fortnite"}); err == nil {
		t.Error("unknown app did not error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := run(ctx, jobs.Spec{App: "stream"}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled runner err = %v", err)
	}
}
