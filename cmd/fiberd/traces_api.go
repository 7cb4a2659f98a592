package main

// The trace API: GET /traces lists the in-memory trace ring (newest
// first) plus the tracer's eviction counters; GET /traces/{id} serves
// one finished trace as fibersim/service-trace/v1 JSON (default), a
// human-readable tree (?format=text), or a chrome://tracing document
// (?format=chrome).

import (
	"encoding/json"
	"fmt"
	"net/http"

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
