package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"fibersim/internal/jobs"
	"fibersim/internal/obs"
)

// ReportSchema identifies the load report layout; bump on any
// incompatible change.
const ReportSchema = "fibersim/load-report/v1"

// weightedSpec is one cell of the -mix: a run spec and its relative
// draw weight.
type weightedSpec struct {
	spec   jobs.Spec
	weight int
}

// parseMix parses the -mix grammar: comma-separated app[:weight]
// entries, e.g. "stream:3,mvmc". Weight defaults to 1.
func parseMix(s, size string) ([]weightedSpec, error) {
	var mix []weightedSpec
	for _, cell := range strings.Split(s, ",") {
		cell = strings.TrimSpace(cell)
		if cell == "" {
			continue
		}
		app, weightStr, hasWeight := strings.Cut(cell, ":")
		weight := 1
		if hasWeight {
			if _, err := fmt.Sscanf(weightStr, "%d", &weight); err != nil || weight < 1 {
				return nil, fmt.Errorf("fiberload: mix cell %q: weight must be a positive integer", cell)
			}
		}
		mix = append(mix, weightedSpec{spec: jobs.Spec{App: app, Size: size}, weight: weight})
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("fiberload: empty spec mix")
	}
	return mix, nil
}

// pick draws one spec by weight using r.
func pick(mix []weightedSpec, r *rand.Rand) jobs.Spec {
	total := 0
	for _, w := range mix {
		total += w.weight
	}
	n := r.Intn(total)
	for _, w := range mix {
		n -= w.weight
		if n < 0 {
			return w.spec
		}
	}
	return mix[len(mix)-1].spec
}

// Percentiles summarizes a latency sample.
type Percentiles struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// percentiles computes the summary over samples (seconds). The q-th
// percentile is the nearest-rank value: the smallest sample with at
// least q of the mass at or below it.
func percentiles(samples []float64) Percentiles {
	if len(samples) == 0 {
		return Percentiles{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := func(q float64) float64 {
		i := int(q*float64(len(s))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return Percentiles{
		P50:  rank(0.50),
		P95:  rank(0.95),
		P99:  rank(0.99),
		Mean: sum / float64(len(s)),
		Max:  s[len(s)-1],
	}
}

// TraceSplit is the queue-wait vs. run-time attribution pulled from a
// sample of job traces: where did the accepted jobs' wall time go?
type TraceSplit struct {
	// Sampled counts the traces fetched and parsed.
	Sampled int `json:"sampled"`
	// QueueWait/Run/Backoff/Journal are mean seconds per sampled trace
	// in each lifecycle phase (run falls back to the attempt span when
	// the runner opened no harness run span).
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	RunSeconds       float64 `json:"run_seconds"`
	BackoffSeconds   float64 `json:"backoff_seconds"`
	JournalSeconds   float64 `json:"journal_seconds"`
}

// Report is fiberload's machine-readable output.
type Report struct {
	Schema     string `json:"schema"`
	Requests   int    `json:"requests"`
	Accepted   int    `json:"accepted"`
	Shed429    int    `json:"shed_429"`
	Errors     int    `json:"errors"`
	JobsDone   int    `json:"jobs_done"`
	JobsFailed int    `json:"jobs_failed"`
	// Cached counts submissions answered 200 from the idempotent result
	// cache (terminal immediately); Coalesced counts 202s that attached
	// to an already-in-flight duplicate instead of enqueueing. Both are
	// included in Accepted.
	Cached    int     `json:"cached"`
	Coalesced int     `json:"coalesced"`
	ErrorRate float64 `json:"error_rate"`
	ShedRate  float64 `json:"shed_rate"`
	// Latency is submit-to-terminal wall time over completed jobs.
	Latency Percentiles `json:"latency_seconds"`
	// Admission is the POST /jobs round-trip alone.
	Admission Percentiles `json:"admission_seconds"`
	Split     TraceSplit  `json:"trace_split"`
}

// loader drives one load run.
type loader struct {
	base    string
	client  *http.Client
	mix     []weightedSpec
	workers int
	total   int           // stop after this many submissions (0: unbounded)
	dur     time.Duration // stop after this long (0: unbounded; one of total/dur must bound)
	poll    time.Duration
	seed    int64

	mu         sync.Mutex
	requests   int
	accepted   int
	shed       int
	errors     int
	jobsDone   int
	jobsFailed int
	cached     int
	coalesced  int
	latencies  []float64
	admissions []float64
	traceIDs   []string
}

// take reserves one submission slot, false once the quota is gone.
func (l *loader) take() bool {
	if l.total <= 0 {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.requests >= l.total {
		return false
	}
	l.requests++
	return true
}

func (l *loader) run(ctx context.Context) {
	if l.dur > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, l.dur)
		defer cancel()
	}
	var wg sync.WaitGroup
	for w := 0; w < l.workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for ctx.Err() == nil && l.take() {
				l.once(ctx, pick(l.mix, r))
			}
		}(l.seed + int64(w))
	}
	wg.Wait()
}

// once submits one job and follows it to a terminal state. A 200 is a
// cache serve: the body is already a terminal job, so there is nothing
// to poll — its latency is the admission round-trip itself. A 202 with
// coalesced:true attached to an in-flight duplicate; it is awaited
// like any other accepted job (the shared job's terminal state is this
// submission's terminal state too).
func (l *loader) once(ctx context.Context, spec jobs.Spec) {
	fail := func() { l.count(func() { l.errors++ }) }
	body, err := json.Marshal(spec)
	if err != nil {
		fail()
		return
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, "POST", l.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		fail()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := l.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			fail()
		}
		return
	}
	admitted := time.Since(start)
	var job jobs.Job
	decErr := json.NewDecoder(resp.Body).Decode(&job)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		l.count(func() { l.shed++ })
		return
	case resp.StatusCode == http.StatusOK && decErr == nil && job.Cached:
		elapsed := time.Since(start)
		l.count(func() {
			l.accepted++
			l.cached++
			l.admissions = append(l.admissions, admitted.Seconds())
			l.latencies = append(l.latencies, elapsed.Seconds())
			if job.State == jobs.StateDone {
				l.jobsDone++
			} else {
				l.jobsFailed++
			}
		})
		return
	case resp.StatusCode != http.StatusAccepted || decErr != nil:
		fail()
		return
	}
	l.count(func() {
		l.accepted++
		l.admissions = append(l.admissions, admitted.Seconds())
		if job.Coalesced {
			l.coalesced++
		}
	})

	final, err := l.await(ctx, job.ID)
	if err != nil {
		if ctx.Err() == nil {
			fail()
		}
		return
	}
	elapsed := time.Since(start)
	l.count(func() {
		l.latencies = append(l.latencies, elapsed.Seconds())
		if final.State == jobs.StateDone {
			l.jobsDone++
		} else {
			l.jobsFailed++
		}
		if final.TraceID != "" {
			l.traceIDs = append(l.traceIDs, final.TraceID)
		}
	})
}

// await polls GET /jobs/{id} until the job is terminal.
func (l *loader) await(ctx context.Context, id string) (jobs.Job, error) {
	for {
		req, err := http.NewRequestWithContext(ctx, "GET", l.base+"/jobs/"+id, nil)
		if err != nil {
			return jobs.Job{}, err
		}
		resp, err := l.client.Do(req)
		if err != nil {
			return jobs.Job{}, err
		}
		var job jobs.Job
		decErr := json.NewDecoder(resp.Body).Decode(&job)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || decErr != nil {
			return jobs.Job{}, fmt.Errorf("fiberload: GET /jobs/%s: status %d, %v", id, resp.StatusCode, decErr)
		}
		if job.State.Terminal() {
			return job, nil
		}
		select {
		case <-ctx.Done():
			return jobs.Job{}, ctx.Err()
		case <-time.After(l.poll):
		}
	}
}

func (l *loader) count(f func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f()
}

// sampleTraces fetches up to limit job traces and attributes their
// wall time to lifecycle phases. Traces already evicted from the ring
// are skipped silently — the sample shrinks, it does not fail.
func (l *loader) sampleTraces(ctx context.Context, limit int) TraceSplit {
	l.mu.Lock()
	ids := append([]string(nil), l.traceIDs...)
	l.mu.Unlock()
	if limit > 0 && len(ids) > limit {
		// Newest last: sample the tail so the traces are least likely
		// to have been evicted.
		ids = ids[len(ids)-limit:]
	}
	var split TraceSplit
	for _, id := range ids {
		req, err := http.NewRequestWithContext(ctx, "GET", l.base+"/traces/"+id, nil)
		if err != nil {
			continue
		}
		resp, err := l.client.Do(req)
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		tr, err := obs.ParseTrace(resp.Body)
		resp.Body.Close()
		if err != nil {
			continue
		}
		split.Sampled++
		split.QueueWaitSeconds += tr.SpanSeconds("queue-wait")
		run := tr.SpanSeconds("run")
		if run == 0 {
			run = tr.SpanSeconds("attempt")
		}
		split.RunSeconds += run
		split.BackoffSeconds += tr.SpanSeconds("backoff")
		split.JournalSeconds += tr.SpanSeconds("journal-append")
	}
	if split.Sampled > 0 {
		n := float64(split.Sampled)
		split.QueueWaitSeconds /= n
		split.RunSeconds /= n
		split.BackoffSeconds /= n
		split.JournalSeconds /= n
	}
	return split
}

// report assembles the final numbers.
func (l *loader) report(split TraceSplit) Report {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := l.accepted + l.shed + l.errors
	rep := Report{
		Schema:     ReportSchema,
		Requests:   total,
		Accepted:   l.accepted,
		Shed429:    l.shed,
		Errors:     l.errors,
		JobsDone:   l.jobsDone,
		JobsFailed: l.jobsFailed,
		Cached:     l.cached,
		Coalesced:  l.coalesced,
		Latency:    percentiles(l.latencies),
		Admission:  percentiles(l.admissions),
		Split:      split,
	}
	if total > 0 {
		rep.ErrorRate = float64(l.errors) / float64(total)
		rep.ShedRate = float64(l.shed) / float64(total)
	}
	return rep
}

// WriteText renders the report for humans, leading with the headline
// percentiles and closing with the latency attribution that answers
// "is it queueing or running".
func (r Report) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "requests %d: %d accepted, %d shed (429), %d errors (error rate %.2f%%, shed rate %.2f%%)\n",
		r.Requests, r.Accepted, r.Shed429, r.Errors, 100*r.ErrorRate, 100*r.ShedRate)
	fmt.Fprintf(w, "jobs: %d done, %d failed (%d cached, %d coalesced)\n",
		r.JobsDone, r.JobsFailed, r.Cached, r.Coalesced)
	fmt.Fprintf(w, "latency  (submit->terminal): p50 %.4fs  p95 %.4fs  p99 %.4fs  mean %.4fs  max %.4fs\n",
		r.Latency.P50, r.Latency.P95, r.Latency.P99, r.Latency.Mean, r.Latency.Max)
	fmt.Fprintf(w, "admission (POST round-trip): p50 %.4fs  p95 %.4fs  p99 %.4fs\n",
		r.Admission.P50, r.Admission.P95, r.Admission.P99)
	if r.Split.Sampled > 0 {
		fmt.Fprintf(w, "trace split over %d traces (mean per job): queue-wait %.4fs, run %.4fs, backoff %.4fs, journal %.4fs\n",
			r.Split.Sampled, r.Split.QueueWaitSeconds, r.Split.RunSeconds,
			r.Split.BackoffSeconds, r.Split.JournalSeconds)
	} else {
		fmt.Fprintln(w, "trace split: no traces sampled (tracing off or ring evicted)")
	}
	_, err := fmt.Fprintln(w)
	return err
}
