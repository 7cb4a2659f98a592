package obs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"fibersim/internal/obs"
)

// tickClock advances one millisecond per call, making every span
// duration exact.
func tickClock() func() time.Time {
	base := time.Unix(1000, 0)
	var ticks int
	return func() time.Time {
		ticks++
		return base.Add(time.Duration(ticks) * time.Millisecond)
	}
}

func newTestTracer(t *testing.T, cfg obs.TracerConfig) *obs.Tracer {
	t.Helper()
	if cfg.Now == nil {
		cfg.Now = tickClock()
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	tr, err := obs.NewTracer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTracerRequiresClock(t *testing.T) {
	if _, err := obs.NewTracer(obs.TracerConfig{}); err == nil {
		t.Fatal("NewTracer without a clock must fail: obs is model scope and may not default to time.Now")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := newTestTracer(t, obs.TracerConfig{})
	sp := tr.StartTrace("job", obs.SpanContext{})
	hdr := sp.Context().Traceparent()
	got, err := obs.ParseTraceparent(hdr)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", hdr, err)
	}
	if got != sp.Context() {
		t.Fatalf("round trip: %+v != %+v", got, sp.Context())
	}
	if !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Errorf("traceparent %q: want version 00, sampled", hdr)
	}
	sp.End()
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-abc-def-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",    // missing flags
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // forbidden version
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
	}
	for _, s := range bad {
		if _, err := obs.ParseTraceparent(s); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted, want error", s)
		}
	}
	// A future version with trailing segments is legal.
	ok := "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future"
	if _, err := obs.ParseTraceparent(ok); err != nil {
		t.Errorf("ParseTraceparent(%q): %v, future versions may carry extra segments", ok, err)
	}
}

func TestTraceLifecycle(t *testing.T) {
	tr := newTestTracer(t, obs.TracerConfig{})
	root := tr.StartTrace("job", obs.SpanContext{})
	root.SetAttr("app", "stream")
	child := root.StartChild("queue-wait")
	child.SetAttr("depth", "3")
	child.End()
	grand := root.StartChild("attempt")
	run := grand.StartChild("run")
	run.End()
	grand.End()
	root.End()

	doc, ok := tr.Trace(root.Context().TraceID.String())
	if !ok {
		t.Fatal("completed trace not in ring")
	}
	if err := doc.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if len(doc.Spans) != 4 {
		t.Fatalf("spans = %d, want 4", len(doc.Spans))
	}
	if doc.Spans[0].Name != "job" || doc.Spans[0].Parent != "" {
		t.Fatalf("root must sort first, got %+v", doc.Spans[0])
	}
	if doc.Name != "job" {
		t.Errorf("trace name = %q", doc.Name)
	}
	byName := map[string]obs.SpanRecord{}
	for _, sp := range doc.Spans {
		byName[sp.Name] = sp
	}
	if byName["queue-wait"].Parent != doc.Spans[0].ID {
		t.Errorf("queue-wait parent = %q, want root %q", byName["queue-wait"].Parent, doc.Spans[0].ID)
	}
	if byName["run"].Parent != byName["attempt"].ID {
		t.Errorf("run parent = %q, want attempt %q", byName["run"].Parent, byName["attempt"].ID)
	}
	if got := byName["queue-wait"].Attrs; len(got) != 1 || got[0] != (obs.Attr{Key: "depth", Value: "3"}) {
		t.Errorf("queue-wait attrs = %+v", got)
	}
	// tickClock: every durationed interval is an exact ms multiple.
	if byName["queue-wait"].DurationSeconds != 0.001 {
		t.Errorf("queue-wait duration = %g, want 0.001", byName["queue-wait"].DurationSeconds)
	}
}

func TestTraceAdoptsRemoteParent(t *testing.T) {
	tr := newTestTracer(t, obs.TracerConfig{})
	remote, err := obs.ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if err != nil {
		t.Fatal(err)
	}
	sp := tr.StartTrace("job", remote)
	if sp.Context().TraceID != remote.TraceID {
		t.Fatalf("trace id %s not adopted from remote %s", sp.Context().TraceID, remote.TraceID)
	}
	if sp.Context().SpanID == remote.SpanID {
		t.Fatal("root span id must be fresh, not the remote parent's")
	}
	sp.End()
	doc, ok := tr.Trace(remote.TraceID.String())
	if !ok {
		t.Fatal("trace not stored under the adopted id")
	}
	if doc.RemoteParent != remote.SpanID.String() {
		t.Errorf("remote parent = %q, want %s", doc.RemoteParent, remote.SpanID)
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTraceRingEviction(t *testing.T) {
	tr := newTestTracer(t, obs.TracerConfig{Capacity: 3})
	var ids []string
	for i := 0; i < 5; i++ {
		sp := tr.StartTrace("job", obs.SpanContext{})
		ids = append(ids, sp.Context().TraceID.String())
		sp.End()
	}
	st := tr.Stats()
	if st.Stored != 3 || st.Evicted != 2 {
		t.Fatalf("stats = %+v, want stored 3 evicted 2", st)
	}
	if _, ok := tr.Trace(ids[0]); ok {
		t.Error("oldest trace must be evicted")
	}
	if _, ok := tr.Trace(ids[4]); !ok {
		t.Error("newest trace must be retained")
	}
	list := tr.Traces()
	if len(list) != 3 || list[0].ID != ids[4] || list[2].ID != ids[2] {
		t.Errorf("Traces() order: got %d entries, first %s", len(list), list[0].ID)
	}
}

func TestLateSpansAreDroppedAndCounted(t *testing.T) {
	tr := newTestTracer(t, obs.TracerConfig{})
	root := tr.StartTrace("job", obs.SpanContext{})
	late := root.StartChild("straggler")
	root.End()
	late.End() // after finalize: dropped
	if root.StartChild("orphan") != nil {
		t.Error("StartChild after finalize must return the nil span")
	}
	st := tr.Stats()
	if st.SpansDropped != 2 {
		t.Errorf("spans dropped = %d, want 2 (late End + orphan start)", st.SpansDropped)
	}
	doc, _ := tr.Trace(root.Context().TraceID.String())
	if doc.OpenSpans != 1 {
		t.Errorf("open spans = %d, want 1 (straggler was open at finalize)", doc.OpenSpans)
	}
}

func TestNilSpanIsNoOp(t *testing.T) {
	var sp *obs.Span
	sp.SetAttr("k", "v")
	sp.End()
	if sp.StartChild("x") != nil {
		t.Error("nil.StartChild must return nil")
	}
	if sp.Context().Valid() {
		t.Error("nil span context must be invalid")
	}
	ctx := obs.ContextWithSpan(context.Background(), nil)
	if obs.SpanFromContext(ctx) != nil {
		t.Error("nil span must not be stored in context")
	}
}

func TestSpanContextPlumbing(t *testing.T) {
	tr := newTestTracer(t, obs.TracerConfig{})
	sp := tr.StartTrace("job", obs.SpanContext{})
	ctx := obs.ContextWithSpan(context.Background(), sp)
	if got := obs.SpanFromContext(ctx); got != sp {
		t.Fatal("span lost in context round trip")
	}
	if obs.SpanFromContext(context.Background()) != nil {
		t.Fatal("empty context must yield nil span")
	}
	sp.End()
}

func TestTraceExportRoundTrip(t *testing.T) {
	tr := newTestTracer(t, obs.TracerConfig{})
	root := tr.StartTrace("job", obs.SpanContext{})
	c := root.StartChild("queue-wait")
	c.End()
	root.End()
	doc, _ := tr.Trace(root.Context().TraceID.String())

	var buf bytes.Buffer
	if err := doc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ParseTrace(&buf)
	if err != nil {
		t.Fatalf("exported trace does not parse back: %v", err)
	}
	if back.ID != doc.ID || len(back.Spans) != len(doc.Spans) {
		t.Fatalf("round trip mangled the trace: %+v", back)
	}

	var txt bytes.Buffer
	if err := doc.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "queue-wait") || !strings.Contains(txt.String(), doc.ID) {
		t.Errorf("text export missing content:\n%s", txt.String())
	}

	var chrome bytes.Buffer
	if err := doc.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range parsed.TraceEvents {
		if n, ok := ev["name"].(string); ok {
			names[n] = true
		}
	}
	if !names["job"] || !names["queue-wait"] {
		t.Errorf("chrome export missing spans: %v", names)
	}
}

func TestTraceValidateRejectsCorruption(t *testing.T) {
	tr := newTestTracer(t, obs.TracerConfig{})
	root := tr.StartTrace("job", obs.SpanContext{})
	root.End()
	good, _ := tr.Trace(root.Context().TraceID.String())

	cases := map[string]func(*obs.Trace){
		"schema":        func(d *obs.Trace) { d.Schema = "nope/v0" },
		"short id":      func(d *obs.Trace) { d.ID = "abc" },
		"no spans":      func(d *obs.Trace) { d.Spans = nil },
		"no name":       func(d *obs.Trace) { d.Name = "" },
		"neg duration":  func(d *obs.Trace) { d.Spans[0].DurationSeconds = -1 },
		"two roots":     func(d *obs.Trace) { d.Spans = append(d.Spans, obs.SpanRecord{ID: "aaaaaaaaaaaaaaaa", Name: "x"}) },
		"bad parent":    func(d *obs.Trace) { d.Spans[0].Parent = "ffffffffffffffff" },
		"zero start":    func(d *obs.Trace) { d.StartUnixNanos = 0 },
		"neg open":      func(d *obs.Trace) { d.OpenSpans = -1 },
		"dup span ids":  func(d *obs.Trace) { d.Spans = append(d.Spans, d.Spans[0]) },
		"unnamed span":  func(d *obs.Trace) { d.Spans[0].Name = "" },
		"short span id": func(d *obs.Trace) { d.Spans[0].ID = "ff" },
	}
	for name, mutate := range cases {
		var buf bytes.Buffer
		if err := good.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		var cp obs.Trace
		if err := json.Unmarshal(buf.Bytes(), &cp); err != nil {
			t.Fatal(err)
		}
		mutate(&cp)
		if err := cp.Validate(); err == nil {
			t.Errorf("%s: corrupted trace validated", name)
		}
	}
}

// TestTracerConcurrentTraces hammers the tracer from many goroutines;
// run under -race this guards the locking discipline.
func TestTracerConcurrentTraces(t *testing.T) {
	var mu sync.Mutex
	base := time.Unix(1000, 0)
	var ticks int
	now := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		ticks++
		return base.Add(time.Duration(ticks) * time.Microsecond)
	}
	tr := newTestTracer(t, obs.TracerConfig{Now: now, Capacity: 8})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				root := tr.StartTrace("job", obs.SpanContext{})
				c := root.StartChild("attempt")
				c.SetAttr("n", "1")
				c.End()
				root.End()
			}
		}()
	}
	wg.Wait()
	st := tr.Stats()
	if st.Active != 0 {
		t.Errorf("active traces = %d after all roots ended", st.Active)
	}
	if st.Stored != 8 || st.Evicted != 16*20-8 {
		t.Errorf("stats = %+v, want stored 8 evicted %d", st, 16*20-8)
	}
	for _, doc := range tr.Traces() {
		if err := doc.Validate(); err != nil {
			t.Errorf("ring holds invalid trace: %v", err)
		}
	}
}
