package obs

// Request-scoped distributed tracing for the service path. The
// simulation side attributes *virtual* time (Recorder/Profile); this
// file attributes *wall* time: where a job's latency went between the
// POST /jobs that admitted it and the journal write that made its
// terminal state durable — queue wait, attempts, backoff sleeps,
// journal fsyncs, the harness run itself.
//
// The design is OpenTelemetry-shaped but stdlib-only: 128-bit trace
// ids, 64-bit span ids, W3C traceparent propagation, parent-linked
// spans with key/value attributes, and a bounded in-memory ring of
// recently completed traces. Two deliberate departures keep it inside
// this repo's determinism contract:
//
//   - the wall clock is injected (obs is model scope for the nondet
//     lint: the service layer passes time.Now, tests pass a fake), and
//   - id entropy comes from an explicitly seeded *rand.Rand, never the
//     global source.

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"fibersim/internal/trace"
)

// TraceSchema identifies the exported trace document layout; bump on
// any incompatible change so downstream tooling can dispatch.
const TraceSchema = "fibersim/service-trace/v1"

// TraceID is the 128-bit W3C trace id; the zero value is invalid.
type TraceID [16]byte

// SpanID is the 64-bit W3C span (parent) id; the zero value is invalid.
type SpanID [8]byte

// String renders the id as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the id as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the id is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// SpanContext is the propagated half of a span: enough to parent a
// remote child and to render a traceparent header.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether both ids are non-zero (the W3C rule: a zero
// trace or parent id invalidates the whole header).
func (c SpanContext) Valid() bool { return !c.TraceID.IsZero() && !c.SpanID.IsZero() }

// Traceparent renders the context as a W3C traceparent header value,
// version 00 with the sampled flag set.
func (c SpanContext) Traceparent() string {
	return fmt.Sprintf("00-%s-%s-01", c.TraceID, c.SpanID)
}

// ParseTraceparent parses a W3C traceparent header value. Future
// versions (anything but "ff") are accepted per spec as long as the
// version-00 prefix shape holds; zero ids are rejected.
func ParseTraceparent(s string) (SpanContext, error) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q: want version-traceid-parentid-flags", s)
	}
	ver, traceHex, spanHex := parts[0], parts[1], parts[2]
	if len(ver) != 2 || !isLowerHex(ver) {
		return SpanContext{}, fmt.Errorf("obs: traceparent version %q invalid", ver)
	}
	if ver == "ff" {
		return SpanContext{}, fmt.Errorf("obs: traceparent version ff is forbidden")
	}
	if len(parts) != 4 && ver == "00" {
		return SpanContext{}, fmt.Errorf("obs: version-00 traceparent %q has %d segments, want 4", s, len(parts))
	}
	var c SpanContext
	if len(traceHex) != 32 || !isLowerHex(traceHex) {
		return SpanContext{}, fmt.Errorf("obs: traceparent trace id %q: want 32 lowercase hex digits", traceHex)
	}
	if len(spanHex) != 16 || !isLowerHex(spanHex) {
		return SpanContext{}, fmt.Errorf("obs: traceparent parent id %q: want 16 lowercase hex digits", spanHex)
	}
	if _, err := hex.Decode(c.TraceID[:], []byte(traceHex)); err != nil {
		return SpanContext{}, fmt.Errorf("obs: traceparent trace id: %v", err)
	}
	if _, err := hex.Decode(c.SpanID[:], []byte(spanHex)); err != nil {
		return SpanContext{}, fmt.Errorf("obs: traceparent parent id: %v", err)
	}
	if fl := parts[3]; len(fl) != 2 || !isLowerHex(fl) {
		return SpanContext{}, fmt.Errorf("obs: traceparent flags %q invalid", fl)
	}
	if !c.Valid() {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q carries a zero id", s)
	}
	return c, nil
}

func isLowerHex(s string) bool {
	for _, r := range s {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

// Attr is one key/value annotation on a span. A slice, not a map, so
// exported order is insertion order (deterministic).
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRecord is one completed span in an exported trace.
type SpanRecord struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"` // empty on the root span
	Name   string `json:"name"`
	// StartUnixNanos stamps the span's start on the service clock.
	StartUnixNanos  int64   `json:"start_unix_ns"`
	DurationSeconds float64 `json:"duration_seconds"`
	Attrs           []Attr  `json:"attrs,omitempty"`
}

// Trace is one completed trace: the root span's identity plus every
// span that finished before the root did, sorted by start time (ties
// by id) with the root first.
type Trace struct {
	Schema string `json:"schema"`
	ID     string `json:"trace_id"`
	// Name is the root span's name.
	Name string `json:"name"`
	// RemoteParent is the inbound traceparent's span id when the trace
	// was started under a remote parent (a client propagating context).
	RemoteParent    string       `json:"remote_parent,omitempty"`
	StartUnixNanos  int64        `json:"start_unix_ns"`
	DurationSeconds float64      `json:"duration_seconds"`
	Spans           []SpanRecord `json:"spans"`
	// OpenSpans counts spans still unfinished when the root ended;
	// they are not in Spans (a span that never ends has no duration).
	OpenSpans int `json:"open_spans,omitempty"`
}

// Validate checks the invariants trace consumers rely on: schema
// identity, well-formed ids, a root span matching the trace header,
// resolvable parent links and finite non-negative durations.
func (t *Trace) Validate() error {
	if t.Schema != TraceSchema {
		return fmt.Errorf("obs: trace schema %q, want %q", t.Schema, TraceSchema)
	}
	if len(t.ID) != 32 || !isLowerHex(t.ID) {
		return fmt.Errorf("obs: trace id %q: want 32 lowercase hex digits", t.ID)
	}
	if t.Name == "" {
		return fmt.Errorf("obs: trace %s has no name", t.ID)
	}
	if len(t.Spans) == 0 {
		return fmt.Errorf("obs: trace %s has no spans", t.ID)
	}
	if t.StartUnixNanos <= 0 {
		return fmt.Errorf("obs: trace %s start %d not positive", t.ID, t.StartUnixNanos)
	}
	ids := make(map[string]bool, len(t.Spans))
	roots := 0
	for _, sp := range t.Spans {
		if len(sp.ID) != 16 || !isLowerHex(sp.ID) {
			return fmt.Errorf("obs: trace %s span id %q: want 16 lowercase hex digits", t.ID, sp.ID)
		}
		if ids[sp.ID] {
			return fmt.Errorf("obs: trace %s has duplicate span id %s", t.ID, sp.ID)
		}
		ids[sp.ID] = true
		if sp.Name == "" {
			return fmt.Errorf("obs: trace %s span %s has no name", t.ID, sp.ID)
		}
		if sp.DurationSeconds < 0 {
			return fmt.Errorf("obs: trace %s span %s duration %g negative", t.ID, sp.ID, sp.DurationSeconds)
		}
		if sp.Parent == "" {
			roots++
		}
	}
	if roots != 1 {
		return fmt.Errorf("obs: trace %s has %d root spans, want exactly 1", t.ID, roots)
	}
	if t.Spans[0].Parent != "" {
		return fmt.Errorf("obs: trace %s root span must sort first, got %s", t.ID, t.Spans[0].Name)
	}
	for _, sp := range t.Spans {
		if sp.Parent != "" && !ids[sp.Parent] {
			return fmt.Errorf("obs: trace %s span %s parent %s not in trace", t.ID, sp.ID, sp.Parent)
		}
	}
	if t.OpenSpans < 0 {
		return fmt.Errorf("obs: trace %s open_spans %d negative", t.ID, t.OpenSpans)
	}
	return nil
}

// Encode writes the trace as indented JSON.
func (t *Trace) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// ParseTrace decodes and validates one trace document.
func ParseTrace(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var t Trace
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("obs: trace decode: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// WriteText renders the trace as an indented human-readable tree:
// children under parents, each line with offset from trace start,
// duration, and attributes in insertion order.
func (t *Trace) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "trace %s %q  %.6fs  spans=%d",
		t.ID, t.Name, t.DurationSeconds, len(t.Spans)); err != nil {
		return err
	}
	if t.OpenSpans > 0 {
		if _, err := fmt.Fprintf(w, "  open=%d", t.OpenSpans); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	children := map[string][]SpanRecord{}
	for _, sp := range t.Spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	// Spans is already sorted by start; the grouping preserves it.
	var walk func(parent string, depth int) error
	walk = func(parent string, depth int) error {
		for _, sp := range children[parent] {
			off := float64(sp.StartUnixNanos-t.StartUnixNanos) / 1e9
			line := fmt.Sprintf("%s%-24s +%.6fs  %.6fs",
				strings.Repeat("  ", depth+1), sp.Name, off, sp.DurationSeconds)
			for _, a := range sp.Attrs {
				line += fmt.Sprintf("  %s=%s", a.Key, a.Value)
			}
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
			if err := walk(sp.ID, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk("", 0)
}

// WriteChromeTrace exports the trace through the same Chrome Trace
// Event path the kernel timelines use, so a job's service-side life
// renders in the viewer next to per-kernel traces: every span becomes
// a complete slice on one track, timestamped relative to trace start
// (Perfetto nests overlapping slices on a track by time containment).
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	log := trace.NewLog(len(t.Spans))
	for _, sp := range t.Spans {
		start := float64(sp.StartUnixNanos-t.StartUnixNanos) / 1e9
		log.Add(trace.Event{
			Name:  sp.Name,
			Cat:   "service",
			Rank:  0,
			Start: start,
			End:   start + sp.DurationSeconds,
		})
	}
	return trace.WriteChrome(w, log)
}

// TracerStats is a point-in-time snapshot of the tracer's bookkeeping,
// for export as metrics by whoever owns a registry.
type TracerStats struct {
	// Active counts traces whose root span has not ended.
	Active int
	// Stored counts completed traces currently in the ring.
	Stored int
	// Evicted counts completed traces pushed out of the ring.
	Evicted int64
	// SpansDropped counts span End calls that arrived after their
	// trace was finalized (or overflowed the per-trace span bound).
	SpansDropped int64
}

// TracerConfig parameterises a Tracer.
type TracerConfig struct {
	// Now is the service wall clock and is required: obs is model
	// scope, so the host clock must be injected by the service layer
	// (cmd/fiberd passes time.Now; tests pass a fake).
	Now func() time.Time
	// Seed seeds the id generator; 0 derives a seed from Now so
	// restarted daemons do not repeat id streams.
	Seed int64
	// Capacity bounds the completed-trace ring; default 256.
	Capacity int
	// MaxSpans bounds the spans kept per trace (the rest are counted
	// as dropped); default 512.
	MaxSpans int
}

// Tracer creates traces, collects their spans and retains completed
// traces in a bounded ring. All methods are safe for concurrent use.
type Tracer struct {
	mu           sync.Mutex
	now          func() time.Time
	rng          *rand.Rand
	capacity     int
	maxSpans     int
	active       map[TraceID]*activeTrace
	ring         []*Trace // oldest first
	evicted      int64
	spansDropped int64
}

type activeTrace struct {
	start  time.Time
	name   string
	remote SpanID
	spans  []SpanRecord
	open   int // spans started and not yet ended, including the root
}

// NewTracer builds a Tracer; cfg.Now is required.
func NewTracer(cfg TracerConfig) (*Tracer, error) {
	if cfg.Now == nil {
		return nil, fmt.Errorf("obs: tracer config has no clock (inject time.Now from the service layer)")
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 256
	}
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = 512
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = cfg.Now().UnixNano()
	}
	return &Tracer{
		now:      cfg.Now,
		rng:      rand.New(rand.NewSource(seed)),
		capacity: cfg.Capacity,
		maxSpans: cfg.MaxSpans,
		active:   map[TraceID]*activeTrace{},
	}, nil
}

// Span is the handle to an in-flight span. A nil *Span is a valid
// no-op (SetAttr, StartChild and End all tolerate it), so call sites
// need no tracing-enabled conditionals.
type Span struct {
	tr     *Tracer
	ctx    SpanContext
	parent SpanID
	name   string
	start  time.Time

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// newID fills b from the seeded generator, retrying the (vanishingly
// unlikely) all-zero draw because zero ids are invalid on the wire.
func (t *Tracer) newID(b []byte) {
	for {
		for i := 0; i < len(b); i += 8 {
			v := t.rng.Uint64()
			n := len(b) - i
			if n > 8 {
				n = 8
			}
			var buf [8]byte
			binary.BigEndian.PutUint64(buf[:], v)
			copy(b[i:i+n], buf[:n])
		}
		for _, x := range b {
			if x != 0 {
				return
			}
		}
	}
}

// StartTrace opens a new trace rooted at a span with the given name.
// A valid remote context (a client's traceparent) donates the trace
// id and becomes the root span's recorded remote parent; otherwise a
// fresh trace id is drawn.
func (t *Tracer) StartTrace(name string, remote SpanContext) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var id TraceID
	var remoteSpan SpanID
	if remote.Valid() {
		id = remote.TraceID
		remoteSpan = remote.SpanID
		if _, dup := t.active[id]; dup {
			// A second root for a live trace id (misbehaving client):
			// fall back to a fresh id rather than corrupting the first.
			t.newID(id[:])
			remoteSpan = SpanID{}
		}
	} else {
		t.newID(id[:])
	}
	var sid SpanID
	t.newID(sid[:])
	now := t.now()
	t.active[id] = &activeTrace{start: now, name: name, remote: remoteSpan, open: 1}
	return &Span{
		tr:    t,
		ctx:   SpanContext{TraceID: id, SpanID: sid},
		name:  name,
		start: now,
	}
}

// StartChild opens a child span under s. On a nil or already-ended
// parent it returns nil (the no-op span).
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	at, ok := t.active[s.ctx.TraceID]
	if !ok {
		// The trace was finalized (root ended first); the child would
		// never be exported, so don't pretend to record it.
		t.spansDropped++
		return nil
	}
	var sid SpanID
	t.newID(sid[:])
	at.open++
	return &Span{
		tr:     t,
		ctx:    SpanContext{TraceID: s.ctx.TraceID, SpanID: sid},
		parent: s.ctx.SpanID,
		name:   name,
		start:  t.now(),
	}
}

// Context returns the span's propagation context (zero on nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.ctx
}

// SetAttr appends one key/value annotation. Later duplicates of a key
// are kept verbatim (insertion order is the export order).
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End completes the span. Ending the root span finalizes the trace:
// its spans are sorted, the document is pushed into the ring (evicting
// the oldest beyond capacity) and still-open children are counted as
// open_spans. End is idempotent; a nil span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()

	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.now()
	at, ok := t.active[s.ctx.TraceID]
	if !ok {
		// Trace already finalized: the root ended before this span.
		t.spansDropped++
		return
	}
	at.open--
	// The root record is never dropped: a trace without its root span
	// would fail its own Validate.
	if len(at.spans) >= t.maxSpans && !s.parent.IsZero() {
		t.spansDropped++
	} else {
		rec := SpanRecord{
			ID:              s.ctx.SpanID.String(),
			Name:            s.name,
			StartUnixNanos:  s.start.UnixNano(),
			DurationSeconds: end.Sub(s.start).Seconds(),
			Attrs:           attrs,
		}
		if !s.parent.IsZero() {
			rec.Parent = s.parent.String()
		}
		at.spans = append(at.spans, rec)
	}
	if s.parent.IsZero() {
		t.finalizeLocked(s.ctx.TraceID, at, end)
	}
}

// finalizeLocked assembles the completed Trace and rotates it into the
// ring. Caller holds t.mu.
func (t *Tracer) finalizeLocked(id TraceID, at *activeTrace, end time.Time) {
	delete(t.active, id)
	spans := at.spans
	// Root first, then by start time, ties broken by id so the order
	// is deterministic under a coarse fake clock.
	sort.SliceStable(spans, func(i, j int) bool {
		ri, rj := spans[i].Parent == "", spans[j].Parent == ""
		if ri != rj {
			return ri
		}
		if spans[i].StartUnixNanos != spans[j].StartUnixNanos {
			return spans[i].StartUnixNanos < spans[j].StartUnixNanos
		}
		return spans[i].ID < spans[j].ID
	})
	doc := &Trace{
		Schema:          TraceSchema,
		ID:              id.String(),
		Name:            at.name,
		StartUnixNanos:  at.start.UnixNano(),
		DurationSeconds: end.Sub(at.start).Seconds(),
		Spans:           spans,
		OpenSpans:       at.open,
	}
	if !at.remote.IsZero() {
		doc.RemoteParent = at.remote.String()
	}
	t.ring = append(t.ring, doc)
	for len(t.ring) > t.capacity {
		t.ring = t.ring[1:]
		t.evicted++
	}
}

// Trace returns the completed trace with the given hex id.
func (t *Tracer) Trace(id string) (*Trace, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.ring) - 1; i >= 0; i-- {
		if t.ring[i].ID == id {
			return t.ring[i], true
		}
	}
	return nil, false
}

// Traces snapshots the completed-trace ring, newest first.
func (t *Tracer) Traces() []*Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Trace, 0, len(t.ring))
	for i := len(t.ring) - 1; i >= 0; i-- {
		out = append(out, t.ring[i])
	}
	return out
}

// spanCtxKey keys the active span in a context (the jobs Manager puts
// the attempt span into the Runner's ctx; the harness pulls it out).
type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying the span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil (the no-op
// span) when there is none.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// Stats snapshots the tracer's bookkeeping.
func (t *Tracer) Stats() TracerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TracerStats{
		Active:       len(t.active),
		Stored:       len(t.ring),
		Evicted:      t.evicted,
		SpansDropped: t.spansDropped,
	}
}
