package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"fibersim/internal/jobs"
	"fibersim/internal/obs"
)

// server holds fiberd's state: its metrics registry (shared with the
// job manager — these are serving metrics), the manifest directory it
// exposes, the sweep progress file it streams, and the job manager
// behind POST /jobs. The clock is injectable so the /metrics
// exposition is testable verbatim.
type server struct {
	reg          *obs.Registry
	manifestDir  string
	progressPath string
	now          func() time.Time
	pollEvery    time.Duration
	// jobs executes submitted run specs; nil disables the job API
	// (405-free: the routes then answer 503).
	jobs *jobs.Manager
	// resolve deep-validates a spec at admission (app/machine/
	// compiler/size/fault against the registries); nil skips — bad
	// specs then fail at execution instead of 400 at the door.
	resolve func(jobs.Spec) error
	// tracer owns the service traces behind GET /traces; nil disables
	// request tracing (jobs still run, untraced).
	tracer *obs.Tracer
	// events fans job transitions and span completions out to
	// /jobs/{id}/events subscribers.
	events *eventHub
	// log is the structured operational log; every line about a traced
	// request carries its trace_id so logs and traces join on it.
	log *slog.Logger
	// pprofOn mounts net/http/pprof under /debug/pprof/ (opt-in: the
	// profiling surface stays off unless -pprof was given).
	pprofOn bool
}

func newServer(reg *obs.Registry, manifestDir, progressPath string, pollEvery time.Duration,
	jm *jobs.Manager, resolve func(jobs.Spec) error) *server {
	return &server{
		reg:          reg,
		manifestDir:  manifestDir,
		progressPath: progressPath,
		now:          time.Now,
		pollEvery:    pollEvery,
		jobs:         jm,
		resolve:      resolve,
		events:       newEventHub(),
		log:          slog.New(slog.NewJSONHandler(io.Discard, nil)),
	}
}

// handler wires the route table. Every route goes through instrument,
// which records a request counter and latency histogram per route
// pattern (patterns, not raw paths, to keep label cardinality fixed).
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.Handle("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	mux.Handle("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	mux.Handle("GET /runs", s.instrument("/runs", s.handleRuns))
	mux.Handle("GET /runs/live", s.instrument("/runs/live", s.handleLive))
	mux.Handle("GET /runs/{name}", s.instrument("/runs/{name}", s.handleRun))
	mux.Handle("POST /jobs", s.instrument("/jobs", s.handleSubmitJob))
	mux.Handle("GET /jobs", s.instrument("/jobs", s.handleJobs))
	mux.Handle("GET /jobs/{id}", s.instrument("/jobs/{id}", s.handleJob))
	mux.Handle("GET /jobs/{id}/events", s.instrument("/jobs/{id}/events", s.handleJobEvents))
	mux.Handle("GET /traces", s.instrument("/traces", s.handleTraces))
	mux.Handle("GET /traces/{id}", s.instrument("/traces/{id}", s.handleTrace))
	if s.pprofOn {
		// The pprof mux is intentionally unmetered: profiling traffic
		// would pollute the serving histograms it exists to explain.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// statusRecorder captures the response code for the request counter.
// It forwards Flush so SSE streaming survives the wrapping.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.code == 0 {
		sr.code = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.code == 0 {
		sr.code = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *server) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.now()
		sr := &statusRecorder{ResponseWriter: w}
		h(sr, r)
		if sr.code == 0 {
			sr.code = http.StatusOK
		}
		s.reg.Counter("fiberd_http_requests_total", "HTTP requests served, by route and status code.",
			obs.Labels{"path": route, "code": strconv.Itoa(sr.code)}).Inc()
		// The class counter is the alerting-friendly rollup of the
		// per-code counter above: "5xx rate on /jobs" is one series.
		s.reg.Counter("fiberd_http_responses_total", "HTTP responses by route and status class (2xx..5xx).",
			obs.Labels{"path": route, "class": statusClass(sr.code)}).Inc()
		s.reg.Histogram("fiberd_http_request_seconds", "Wall-clock request latency.",
			obs.TimeBuckets(), obs.Labels{"path": route}).Observe(s.now().Sub(start).Seconds())
	})
}

// statusClass buckets an HTTP status code into its class label.
func statusClass(code int) string {
	switch {
	case code >= 200 && code < 300:
		return "2xx"
	case code >= 300 && code < 400:
		return "3xx"
	case code >= 400 && code < 500:
		return "4xx"
	case code >= 500 && code < 600:
		return "5xx"
	}
	return "other"
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if s.tracer != nil {
		// The tracer is registry-agnostic; mirror its counters into
		// gauges at scrape time so eviction pressure is observable.
		st := s.tracer.Stats()
		s.reg.Gauge("fiberd_traces_active", "Traces with an open root span.", nil).Set(float64(st.Active))
		s.reg.Gauge("fiberd_traces_stored", "Finished traces held in the ring.", nil).Set(float64(st.Stored))
		s.reg.Gauge("fiberd_traces_evicted", "Finished traces evicted from the ring, cumulative.", nil).Set(float64(st.Evicted))
		s.reg.Gauge("fiberd_trace_spans_dropped", "Spans dropped at per-trace capacity or after finalization, cumulative.", nil).Set(float64(st.SpansDropped))
	}
	if s.events != nil {
		s.reg.Gauge("fiberd_job_events_dropped", "Job events dropped on slow /jobs/{id}/events subscribers, cumulative.", nil).
			Set(float64(s.events.droppedCount()))
	}
	// Render to a buffer first so a slow client cannot hold the
	// registry in a half-written state, then send in one go.
	var buf bytes.Buffer
	if err := s.reg.WritePrometheus(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if _, err := w.Write(buf.Bytes()); err != nil {
		// Client went away mid-body; nothing useful to do.
		return
	}
}

// runEntry is one row of the /runs listing.
type runEntry struct {
	File        string  `json:"file"`
	App         string  `json:"app"`
	Config      string  `json:"config"`
	TimeSeconds float64 `json:"time_seconds"`
	GFlops      float64 `json:"gflops"`
	Verified    bool    `json:"verified"`
}

func (s *server) handleRuns(w http.ResponseWriter, _ *http.Request) {
	names, err := filepath.Glob(filepath.Join(s.manifestDir, "*.json"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sort.Strings(names)
	entries := []runEntry{}
	for _, path := range names {
		m, err := obs.ReadManifestFile(path)
		if err != nil {
			// A corrupt manifest must not take the listing down; count
			// it and move on.
			s.reg.Counter("fiberd_manifest_errors_total",
				"Manifests skipped because they failed to parse or validate.", nil).Inc()
			continue
		}
		c := m.Config
		entries = append(entries, runEntry{
			File: filepath.Base(path),
			App:  m.App,
			Config: fmt.Sprintf("%s %dx%d %s %s",
				c.Machine, c.Procs, c.Threads, c.Compiler, c.Size),
			TimeSeconds: m.TimeSeconds,
			GFlops:      m.GFlops,
			Verified:    m.Verified,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(entries); err != nil {
		return
	}
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// Base names only: the manifest directory is the whole universe.
	if name != filepath.Base(name) || strings.HasPrefix(name, ".") {
		http.Error(w, "manifest name must be a plain file name", http.StatusBadRequest)
		return
	}
	path := filepath.Join(s.manifestDir, name)
	if _, err := os.Stat(path); err != nil {
		http.Error(w, "no such manifest", http.StatusNotFound)
		return
	}
	m, err := obs.ReadManifestFile(path)
	if err != nil {
		http.Error(w, fmt.Sprintf("manifest invalid: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := m.Encode(w); err != nil {
		return
	}
}

// handleLive streams sweep progress as Server-Sent Events. Each
// complete, valid progress line in the file becomes one "run" event;
// the file is re-read from the last offset every poll tick, so a
// fibersweep -progress redirect can be tailed live. The stream ends
// when the client disconnects.
func (s *server) handleLive(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	if s.progressPath == "" {
		http.Error(w, "no progress file configured (-progress)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ticker := time.NewTicker(s.pollEvery)
	defer ticker.Stop()
	var off int64
	for {
		lines, n, err := readNewLines(s.progressPath, off)
		if err == nil {
			off = n
			sent := false
			for _, ln := range lines {
				// Forward only lines that parse as progress; a torn
				// tail or stray log line must not corrupt the stream.
				if _, perr := obs.ParseProgress(ln); perr != nil {
					continue
				}
				if _, werr := fmt.Fprintf(w, "event: run\ndata: %s\n\n", ln); werr != nil {
					return
				}
				sent = true
			}
			if sent {
				fl.Flush()
			}
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}

// readNewLines returns the complete lines appended to path since
// offset, plus the new offset (just past the last newline). A missing
// file is not an error — the sweep may simply not have started.
func readNewLines(path string, offset int64) ([][]byte, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, offset, nil
		}
		return nil, offset, err
	}
	defer f.Close()
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return nil, offset, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, offset, err
	}
	last := bytes.LastIndexByte(data, '\n')
	if last < 0 {
		return nil, offset, nil
	}
	var out [][]byte
	for _, ln := range bytes.Split(data[:last], []byte("\n")) {
		ln = bytes.TrimSpace(ln)
		if len(ln) > 0 {
			out = append(out, ln)
		}
	}
	return out, offset + int64(last) + 1, nil
}
