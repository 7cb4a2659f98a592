package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fibersim/internal/jobs"
	"fibersim/internal/obs"
)

// TestServiceUnderLoad drives the production handler over loopback
// with many concurrent clients: 8 submitters send 300 POST /jobs, two
// stream specs to every mvmc one at size test, and follow each
// accepted job by polling GET /jobs/{id} until it is terminal. The
// manager runs as fiberd does by default (4 workers, queue 64, 2
// retries, breaker threshold 5) with a real journal, the Execute-based
// runner saving manifests, and a 512-trace ring.
//
// It checks, in order: every POST answers 202, 200 or 429 (a handler
// panic drops the connection and fails here); every accepted job ends
// done before the deadline (a worker panic fails its job); the newest
// 50 traces parse and validate and hold a timed run span; every saved
// manifest validates and links back to a submitted trace; /metrics
// exposes the tracer's gauges; and the manager drains cleanly.
func TestServiceUnderLoad(t *testing.T) {
	const (
		submitters = 8
		posts      = 300
		sampled    = 50
	)
	mix := []string{"stream", "stream", "mvmc"}
	dir := t.TempDir()
	_, h, jm := tracedServer(t, jobs.Config{
		QueueCap: 64, Workers: 4, MaxRetries: 2, BreakerThreshold: 5,
		Runner: newRunner(dir, slog.New(slog.NewJSONHandler(io.Discard, nil))),
	}, 512)
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := ts.Client()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	get := func(path string, v any) error {
		req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+path, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s = %d", path, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(v)
	}
	// submit sends one spec and, when it is accepted, polls the job to
	// a terminal state. It returns that last snapshot, and false when
	// the spec was shed.
	submit := func(app string) (jobs.Job, bool, error) {
		body := fmt.Sprintf(`{"app":%q,"size":"test"}`, app)
		req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/jobs", strings.NewReader(body))
		if err != nil {
			return jobs.Job{}, false, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return jobs.Job{}, false, err
		}
		var job jobs.Job
		decErr := json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			return jobs.Job{}, false, nil
		case resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK:
			return jobs.Job{}, false, fmt.Errorf("POST /jobs = %d", resp.StatusCode)
		case decErr != nil:
			return jobs.Job{}, false, fmt.Errorf("POST /jobs body: %v", decErr)
		}
		for !job.State.Terminal() {
			select {
			case <-ctx.Done():
				return job, true, fmt.Errorf("job %s still %s at the deadline", job.ID, job.State)
			case <-time.After(time.Millisecond):
			}
			var cur jobs.Job
			if err := get("/jobs/"+job.ID, &cur); err != nil {
				return job, true, err
			}
			job = cur
		}
		return job, true, nil
	}

	var (
		next     atomic.Int64
		mu       sync.Mutex
		accepted []jobs.Job // in the order the service answered
		wg       sync.WaitGroup
	)
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < posts; i = next.Add(1) - 1 {
				job, ok, err := submit(mix[i%int64(len(mix))])
				if err != nil {
					t.Errorf("submission %d: %v", i, err)
					return
				}
				if !ok {
					continue
				}
				if job.State != jobs.StateDone {
					t.Errorf("job %s (%s) ended %s, want done: %s", job.ID, job.Spec.App, job.State, job.Err)
				}
				mu.Lock()
				accepted = append(accepted, job)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if len(accepted) == 0 {
		t.Fatal("no submission was accepted")
	}

	submitted := map[string]bool{}
	for _, job := range accepted {
		submitted[job.TraceID] = true
	}
	for _, job := range accepted[max(0, len(accepted)-sampled):] {
		tr := fetchTrace(t, h, job.TraceID)
		run := false
		for _, sp := range tr.Spans {
			run = run || sp.Name == "run" && sp.DurationSeconds > 0
		}
		if !run {
			t.Errorf("trace %s holds no run span of positive duration", tr.ID)
		}
	}

	names, err := filepath.Glob(filepath.Join(dir, "run-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(accepted) {
		t.Errorf("%d saved manifests for %d accepted jobs", len(names), len(accepted))
	}
	for _, name := range names {
		m, err := obs.ReadManifestFile(name)
		switch {
		case err != nil:
			t.Errorf("saved manifest %s: %v", filepath.Base(name), err)
		case m.Trace == nil || len(m.Trace.TraceID) != 32 || !submitted[m.Trace.TraceID]:
			t.Errorf("saved manifest %s links to %+v, not a submitted trace", filepath.Base(name), m.Trace)
		}
	}

	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !strings.Contains(string(metrics), "fiberd_traces_stored") {
		t.Errorf("/metrics lacks fiberd_traces_stored (%v)", err)
	}

	if err := jm.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
}
