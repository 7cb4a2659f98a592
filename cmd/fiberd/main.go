// Command fiberd is the long-running simulation service: it executes
// submitted run specs through a resilient job engine, exposes serving
// metrics in the Prometheus text format, lists and serves run
// manifests from a directory, and streams live sweep progress over
// Server-Sent Events.
//
//	fiberd -addr :8080 -manifests runs -journal jobs.journal
//
// Endpoints:
//
//	GET  /healthz     liveness probe (the process answers)
//	GET  /readyz      readiness probe (ready | degraded | draining)
//	GET  /metrics     Prometheus exposition of serving metrics
//	POST /jobs        submit a run spec; 202 + job id (200 when served
//	                  from the result cache), 429/503 on shed
//	GET  /jobs        list jobs (?limit=N; newest 100 by default)
//	GET  /jobs/{id}   one job's state
//	GET  /runs        JSON listing of the manifest directory
//	GET  /runs/{name} one manifest, parsed and validated
//	GET  /runs/live   SSE stream of fibersweep -progress output
//	GET  /debug/pprof/  the process's own pprof profiles (with -pprof)
//
// Every job state transition is appended to the -journal JSONL file
// (schema fibersim/job-journal/v2; v1 files replay cleanly) and
// fsynced before fiberd acts on it. The journal is
// torn-tail-tolerant: a SIGKILL'd daemon replays it on restart and
// re-queues incomplete jobs exactly once, so no accepted job is ever
// lost or completed twice. With -journal-retention set,
// startup first compacts the journal, dropping jobs settled longer ago
// than the retention. On SIGINT/SIGTERM fiberd drains gracefully: it
// refuses new work, finishes running jobs, persists the queue and
// syncs the journal before exiting.
//
// Overload protection: -queue bounds the admission queue (429 +
// Retry-After beyond it), and per-(app, machine) circuit breakers shed
// a failing configuration with 503. -result-cache enables idempotent
// result serving: duplicate specs coalesce onto the in-flight job, and
// completed specs are answered from the cache, also when a breaker is
// open or the queue is full.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"fibersim/internal/harness"
	"fibersim/internal/jobs"
	"fibersim/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	manifests := flag.String("manifests", "runs", "directory of run manifests to serve")
	progress := flag.String("progress", "", "sweep progress file (JSONL) to stream on /runs/live")
	poll := flag.Duration("poll", 500*time.Millisecond, "progress file poll interval")
	drain := flag.Duration("drain", 5*time.Second, "graceful shutdown drain window")
	journalPath := flag.String("journal", "", "job journal path (JSONL, crash-safe); empty keeps job state in memory only")
	queueCap := flag.Int("queue", 64, "admission queue bound; submissions beyond it get 429")
	workers := flag.Int("workers", 2, "job worker pool size")
	jobTimeout := flag.Duration("job-timeout", 2*time.Minute, "per-attempt job deadline")
	jobRetries := flag.Int("job-retries", 2, "default and ceiling for per-job retries")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive failures that trip an (app, machine) circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 30*time.Second, "how long a tripped breaker refuses work before probing")
	journalRetention := flag.Duration("journal-retention", 0, "compact the journal on startup, dropping jobs settled longer ago than this; 0 never compacts")
	resultCache := flag.String("result-cache", "", "idempotent result cache: a perfdb JSONL path, 'mem' for in-memory only, or empty to disable")
	traceCap := flag.Int("trace-ring", 256, "finished service traces kept in memory for GET /traces; oldest evicted first")
	saveManifests := flag.Bool("save-manifests", false, "write each completed job's run manifest into the -manifests directory")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := obs.NewRegistry()
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	logf := func(format string, args ...any) {
		logger.Warn(fmt.Sprintf(format, args...))
	}
	hub := newEventHub()
	tracer, err := obs.NewTracer(obs.TracerConfig{
		Now:      time.Now,
		Seed:     time.Now().UnixNano(),
		Capacity: *traceCap,
		OnSpanEnd: func(sc obs.SpanContext, rec obs.SpanRecord) {
			hub.publish("trace:"+sc.TraceID.String(), jobEvent{
				Type: "span", Span: &rec, TraceID: sc.TraceID.String(),
			})
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fiberd:", err)
		os.Exit(1)
	}

	var journal *jobs.Journal
	var recovered []jobs.Record
	if *journalPath != "" {
		if *journalRetention > 0 {
			// Compaction runs before the journal opens for appending:
			// a rewrite under an open O_APPEND handle would race it.
			kept, dropped, cerr := jobs.CompactJournal(*journalPath, *journalRetention, time.Now())
			if cerr != nil {
				fmt.Fprintln(os.Stderr, "fiberd: journal compaction:", cerr)
				os.Exit(1)
			}
			logger.Info("journal compacted", "path", *journalPath,
				"kept", kept, "dropped", dropped, "retention", journalRetention.String())
		}
		journal, recovered, err = jobs.OpenJournal(*journalPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fiberd:", err)
			os.Exit(1)
		}
	}
	var cache *jobs.ResultCache
	if *resultCache != "" {
		cachePath := *resultCache
		if cachePath == "mem" {
			cachePath = ""
		}
		cache, err = jobs.OpenResultCache(cachePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fiberd: result cache:", err)
			os.Exit(1)
		}
	}
	saveDir := ""
	if *saveManifests {
		saveDir = *manifests
	}
	manager, err := jobs.NewManager(jobs.Config{
		Runner:           newRunner(saveDir, logger),
		QueueCap:         *queueCap,
		Cache:            cache,
		Workers:          *workers,
		JobTimeout:       *jobTimeout,
		MaxRetries:       *jobRetries,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		Journal:          journal,
		Registry:         reg,
		Logf:             logf,
		OnTransition: func(job jobs.Job) {
			hub.publish("job:"+job.ID, jobEvent{Type: "state", Job: &job})
			logger.Info("job transition", "job_id", job.ID, "state", string(job.State),
				"attempt", job.Attempt, "error", job.Err, "trace_id", job.TraceID)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fiberd:", err)
		os.Exit(1)
	}
	manager.Recover(recovered)
	manager.Start()

	s := newServer(reg, *manifests, *progress, *poll, manager, resolveSpec)
	s.tracer = tracer
	s.events = hub
	s.log = logger
	s.pprofOn = *pprofOn
	code := serve(ctx, *addr, s.handler(), *drain, os.Stderr, manager)
	if journal != nil {
		if err := journal.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "fiberd: journal close:", err)
			code = 1
		}
	}
	os.Exit(code)
}

// toRunSpec maps the job engine's transport-level Spec onto the
// harness resolver.
func toRunSpec(spec jobs.Spec) harness.RunSpec {
	return harness.RunSpec{
		App: spec.App, Machine: spec.Machine,
		Procs: spec.Procs, Threads: spec.Threads,
		Compiler: spec.Compiler, Size: spec.Size, Fault: spec.Fault,
	}
}

// resolveSpec is the admission-time deep validation: a spec that does
// not resolve is a 400 at POST, not a failed job.
func resolveSpec(spec jobs.Spec) error {
	_, _, err := toRunSpec(spec).Resolve()
	return err
}

// newRunner builds the manager's Runner: each attempt goes through
// harness.RunSpec.Execute, which hangs a "run" span under the attempt
// span riding ctx and returns the full run manifest. With saveDir set,
// the manifest lands there as run-<span id>.json (the run span's id is
// unique per attempt) so GET /runs serves service-executed runs too,
// each carrying the trace link back to its request. The simulation
// itself is not cancellable, so ctx is consulted only at the door —
// the manager's deadline guard handles runaway attempts by
// abandonment.
func newRunner(saveDir string, logger *slog.Logger) jobs.Runner {
	return func(ctx context.Context, spec jobs.Spec) (jobs.Result, error) {
		doc, err := toRunSpec(spec).Execute(ctx)
		if err != nil {
			return jobs.Result{}, err
		}
		if saveDir != "" {
			name := manifestName(doc)
			if werr := doc.WriteFile(filepath.Join(saveDir, name)); werr != nil {
				// A failed manifest write degrades observability, not
				// the job: the result still flows back to the caller.
				logger.Warn("manifest write failed", "file", name, "error", werr.Error())
			}
		}
		return jobs.Result{TimeSeconds: doc.TimeSeconds, GFlops: doc.GFlops, Verified: doc.Verified}, nil
	}
}

// manifestName picks a collision-free file name for a saved manifest:
// the run span id is unique per traced attempt; untraced runs fall
// back to a timestamp.
func manifestName(doc *obs.Manifest) string {
	if doc.Trace != nil {
		return "run-" + doc.Trace.SpanID + ".json"
	}
	return "run-" + time.Now().UTC().Format("20060102T150405.000000000") + ".json"
}

// serve runs the HTTP server until the context is cancelled (signal)
// or the listener fails, then drains gracefully: the job manager
// stops admission and finishes running jobs while the HTTP server
// completes in-flight requests, both bounded by the drain window. It
// returns the process exit code rather than calling os.Exit so tests
// can drive it. Operational lines go to stderr as JSON (log/slog),
// matching the per-request and per-transition logs.
func serve(ctx context.Context, addr string, h http.Handler, drain time.Duration, stderr io.Writer, manager *jobs.Manager) int {
	logger := slog.New(slog.NewJSONHandler(stderr, nil))
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", addr)

	select {
	case err := <-errc:
		// The listener died on its own (bad address, port in use).
		logger.Error("listener failed", "error", err.Error())
		return 1
	case <-ctx.Done():
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	code := 0
	// Drain jobs and HTTP concurrently: admission flips to refusing
	// immediately, running jobs and in-flight requests get the window.
	jobsDrained := make(chan error, 1)
	go func() {
		if manager == nil {
			jobsDrained <- nil
			return
		}
		jobsDrained <- manager.Drain(shutCtx)
	}()
	if err := srv.Shutdown(shutCtx); err != nil {
		// Drain window expired with requests still in flight.
		logger.Error("shutdown incomplete", "error", err.Error())
		code = 1
	}
	if err := <-jobsDrained; err != nil {
		logger.Error("job drain incomplete", "error", err.Error())
		code = 1
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("listener failed", "error", err.Error())
		code = 1
	}
	if code == 0 {
		logger.Info("clean shutdown")
	}
	return code
}
