package main

// This file is the job API: POST /jobs admits run specs into the
// bounded queue, GET /jobs and GET /jobs/{id} expose job state, and
// GET /readyz is the readiness half of the health split (liveness
// stays on /healthz: a process that answers at all is alive;
// readiness is a statement about whether it should receive traffic).

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"fibersim/internal/jobs"
	"fibersim/internal/obs"
)

// maxSpecBytes bounds a POST /jobs body; a run spec is a handful of
// short fields, so anything bigger is garbage or abuse.
const maxSpecBytes = 1 << 20

// handleSubmitJob is the admission path: decode, validate (shallow +
// registry-deep), then let the manager decide. The status codes are
// the load-shedding contract:
//
//	202 accepted            (body: the job, including its id; a
//	                         coalesced duplicate returns the in-flight
//	                         job it attached to, with coalesced:true)
//	200 cached              (body: a completed job served from the
//	                         idempotent result cache, also when fresh
//	                         execution would be refused)
//	400 malformed spec
//	429 queue full          (Retry-After: estimated drain time)
//	503 breaker open        (Retry-After), draining, or no job engine
//
// When tracing is on, admission opens the request's root span (the
// "admission" phase of the trace). A traceparent request header makes
// the trace a child of the caller's; the response echoes the job's
// trace id both in the body (trace_id) and as a traceparent header so
// clients can fetch GET /traces/{id} later. On a 202 the span's
// ownership passes to the job manager, which ends it at the terminal
// journal write; on a shed or error the handler annotates the outcome
// and ends the span itself.
func (s *server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		http.Error(w, "job execution not configured", http.StatusServiceUnavailable)
		return
	}
	var span *obs.Span
	if s.tracer != nil {
		var remote obs.SpanContext
		if tp := r.Header.Get("traceparent"); tp != "" {
			// A malformed header is the caller's problem, not a reason
			// to refuse the job: fall back to a fresh root.
			remote, _ = obs.ParseTraceparent(tp)
		}
		span = s.tracer.StartTrace("job", remote)
		span.SetAttr("route", "/jobs")
	}
	reject := func(outcome, msg string, code int) {
		span.SetAttr("outcome", outcome)
		span.SetAttr("error", msg)
		span.End()
		s.log.Info("job rejected", "outcome", outcome, "status", code,
			"error", msg, "trace_id", traceIDOf(span))
		http.Error(w, msg, code)
	}
	var spec jobs.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		reject("bad-spec", fmt.Sprintf("bad spec: %v", err), http.StatusBadRequest)
		return
	}
	if err := spec.Validate(); err != nil {
		reject("bad-spec", err.Error(), http.StatusBadRequest)
		return
	}
	span.SetAttr("app", spec.App)
	if s.resolve != nil {
		if err := s.resolve(spec); err != nil {
			reject("unresolvable", err.Error(), http.StatusBadRequest)
			return
		}
	}
	job, err := s.jobs.SubmitTraced(spec, span)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		w.Header().Set("Retry-After", retryAfterSeconds(s.jobs))
		reject("shed-queue-full", err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, jobs.ErrBreakerOpen):
		w.Header().Set("Retry-After", retryAfterSeconds(s.jobs))
		reject("shed-breaker-open", err.Error(), http.StatusServiceUnavailable)
		return
	case errors.Is(err, jobs.ErrDraining):
		reject("shed-draining", err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		reject("rejected", err.Error(), http.StatusBadRequest)
		return
	}
	// Admitted, coalesced, or served from cache: the manager owns (and,
	// for the latter two, has already ended) the span. A cached serve
	// is complete — 200, the result is in the body; everything else is
	// 202, the job is (or was already) in flight.
	code := http.StatusAccepted
	switch {
	case job.Cached:
		code = http.StatusOK
		s.log.Info("job served from cache", "app", spec.App, "trace_id", traceIDOf(span))
	case job.Coalesced:
		s.log.Info("job coalesced", "job_id", job.ID, "app", spec.App, "trace_id", traceIDOf(span))
	default:
		s.log.Info("job accepted", "job_id", job.ID, "app", spec.App, "trace_id", job.TraceID)
	}
	if sc := span.Context(); sc.Valid() {
		w.Header().Set("traceparent", sc.Traceparent())
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(job); err != nil {
		return
	}
}

// traceIDOf renders a possibly-nil span's trace id for log lines.
func traceIDOf(span *obs.Span) string {
	sc := span.Context()
	if !sc.Valid() {
		return ""
	}
	return sc.TraceID.String()
}

// retryAfterSeconds renders the manager's drain estimate as the
// integral seconds the Retry-After header wants, at least 1.
func retryAfterSeconds(m *jobs.Manager) string {
	secs := int(m.RetryAfter().Seconds())
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// defaultJobsLimit caps GET /jobs when no ?limit= is given: the
// listing used to return every job the daemon ever tracked, which
// grows without bound on a long-lived process.
const defaultJobsLimit = 100

// handleJobs lists tracked jobs in submission order, most recent
// defaultJobsLimit by default. ?limit=N widens or narrows the window
// (N <= 0 means unbounded).
func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		http.Error(w, "job execution not configured", http.StatusServiceUnavailable)
		return
	}
	limit := defaultJobsLimit
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad limit %q", v), http.StatusBadRequest)
			return
		}
		limit = n
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.jobs.Jobs(limit)); err != nil {
		return
	}
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		http.Error(w, "job execution not configured", http.StatusServiceUnavailable)
		return
	}
	job, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(job); err != nil {
		return
	}
}

// readiness is the /readyz body: the overall verdict plus every
// breaker key whose circuit is not closed, so a dashboard (or a
// human) can see which (app, machine) pairs are degraded without
// parsing /metrics.
type readiness struct {
	Status string `json:"status"` // ready | degraded | draining
	// Breakers lists non-closed breakers as key → state.
	Breakers map[string]string `json:"breakers,omitempty"`
	// QueueDepth is the current admission backlog.
	QueueDepth int `json:"queue_depth"`
}

// handleReadyz: 200 ready (all circuits closed), 200 degraded (some
// (app, machine) keys tripped — the rest of the service still takes
// traffic), 503 draining (SIGTERM received) or 503 when no job
// engine is configured at all (manifest-only mode still serves runs,
// but should not receive job traffic).
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.jobs == nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"no-jobs"}`)
		return
	}
	rd := readiness{Status: "ready", QueueDepth: s.jobs.QueueDepth()}
	for _, b := range s.jobs.BreakerStates() {
		if b.State != jobs.BreakerClosed {
			if rd.Breakers == nil {
				rd.Breakers = map[string]string{}
			}
			rd.Breakers[b.Key] = b.State.String()
			rd.Status = "degraded"
		}
	}
	code := http.StatusOK
	if s.jobs.Draining() {
		rd.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(rd); err != nil {
		return
	}
}
