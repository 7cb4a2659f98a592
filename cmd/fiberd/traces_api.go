package main

// The trace API: GET /traces lists the in-memory trace ring (newest
// first) plus the tracer's eviction counters; GET /traces/{id} serves
// one finished trace as fibersim/service-trace/v1 JSON (default), a
// human-readable tree (?format=text), or a chrome://tracing document
// (?format=chrome). GET /jobs/{id}/events streams a job's transitions
// and span completions as SSE.

import (
	"encoding/json"
	"fmt"
	"net/http"

	"fibersim/internal/jobs"
	"fibersim/internal/obs"
)

// traceSummary is one row of the /traces listing.
type traceSummary struct {
	ID              string  `json:"id"`
	Name            string  `json:"name"`
	StartUnixNanos  int64   `json:"start_unix_ns"`
	DurationSeconds float64 `json:"duration_seconds"`
	Spans           int     `json:"spans"`
	RemoteParent    string  `json:"remote_parent,omitempty"`
}

// traceListing is the /traces body: the ring's contents plus the
// counters that say how trustworthy the ring is (what was evicted or
// dropped is not listed).
type traceListing struct {
	Traces []traceSummary  `json:"traces"`
	Stats  obs.TracerStats `json:"stats"`
}

func (s *server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	if s.tracer == nil {
		http.Error(w, "tracing not configured", http.StatusServiceUnavailable)
		return
	}
	listing := traceListing{Traces: []traceSummary{}, Stats: s.tracer.Stats()}
	for _, tr := range s.tracer.Traces() {
		listing.Traces = append(listing.Traces, traceSummary{
			ID:              tr.ID,
			Name:            tr.Name,
			StartUnixNanos:  tr.StartUnixNanos,
			DurationSeconds: tr.DurationSeconds,
			Spans:           len(tr.Spans),
			RemoteParent:    tr.RemoteParent,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(listing); err != nil {
		return
	}
}

func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		http.Error(w, "tracing not configured", http.StatusServiceUnavailable)
		return
	}
	tr, ok := s.tracer.Trace(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such trace (finished traces only; the ring evicts oldest first)", http.StatusNotFound)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		if err := tr.Encode(w); err != nil {
			return
		}
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := tr.WriteText(w); err != nil {
			return
		}
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		if err := tr.WriteChromeTrace(w); err != nil {
			return
		}
	default:
		http.Error(w, fmt.Sprintf("unknown format %q (json, text, chrome)", format), http.StatusBadRequest)
	}
}

// handleJobEvents streams one job's lifecycle as SSE: "state" events
// carry job snapshots, "span" events completed trace spans. The stream
// closes itself once the lifecycle is over — for a traced job that is
// the root span's completion (which follows the terminal journal
// write), for an untraced job the terminal state event. A job already
// terminal at subscribe time gets its current state plus, when the
// trace is still in the ring, a replay of its spans.
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		http.Error(w, "job execution not configured", http.StatusServiceUnavailable)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	job, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}

	// Subscribe before reading the job state again, so nothing falls
	// between the snapshot and the subscription.
	keys := []string{"job:" + job.ID}
	if job.TraceID != "" {
		keys = append(keys, "trace:"+job.TraceID)
	}
	ch, cancel := s.events.subscribe(keys...)
	defer cancel()

	// Snapshot before the headers go out: once the client sees them it
	// may act on the job, and a snapshot taken after that could already
	// be terminal although the subscription was live.
	job, _ = s.jobs.Get(job.ID)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	send := func(ev jobEvent) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	// Current state first: every client sees at least one event.
	if !send(jobEvent{Type: "state", Job: &job}) {
		return
	}
	if job.State.Terminal() {
		// Lifecycle already over; replay the trace if it survives.
		if tr, ok := s.traceFor(job); ok {
			for i := range tr.Spans {
				if !send(jobEvent{Type: "span", Span: &tr.Spans[i], TraceID: tr.ID}) {
					return
				}
			}
		}
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			if !send(ev) {
				return
			}
			if ev.Type == "span" && ev.Span.Parent == "" {
				return // root span closed: the traced lifecycle is complete
			}
			if ev.Type == "state" && job.TraceID == "" && ev.Job != nil && ev.Job.State.Terminal() {
				return // untraced: the terminal state is the last event
			}
		}
	}
}

// traceFor fetches a job's finished trace from the ring, if tracing is
// on, the job was traced, and the ring has not evicted it yet.
func (s *server) traceFor(job jobs.Job) (*obs.Trace, bool) {
	if s.tracer == nil || job.TraceID == "" {
		return nil, false
	}
	return s.tracer.Trace(job.TraceID)
}
