package obs

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// stepClock returns an injected clock advancing d per reading.
func stepClock(d time.Duration) func() time.Time {
	t := time.Unix(1700000000, 0)
	return func() time.Time { t = t.Add(d); return t }
}

func TestCostRecorderNilIsSafe(t *testing.T) {
	var c *CostRecorder = NewCostRecorder(nil)
	if c != nil {
		t.Fatal("nil clock must return a nil (disabled) recorder")
	}
	c.Start()
	c.Finish()
	p := c.Profile("off")
	if err := p.Validate(); err != nil {
		t.Errorf("nil recorder's profile must validate: %v", err)
	}
	if p.ElapsedSeconds != 0 || p.Allocs != 0 || p.HeapPeakBytes != 0 {
		t.Errorf("nil profile = %+v", p)
	}
}

var allocSink []byte

func TestCostRecorderMeasuresSection(t *testing.T) {
	c := NewCostRecorder(stepClock(10 * time.Millisecond))
	c.Start()
	allocSink = make([]byte, 1<<16) // a visible allocation inside the section
	c.Finish()
	c.Finish() // a second Finish keeps the first reading

	p := c.Profile("stream")
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Label != "stream" || p.Schema != SelfProfileSchema {
		t.Errorf("identity = %q %q", p.Schema, p.Label)
	}
	// Start and Finish read the stepping clock once each.
	if p.ElapsedSeconds != 0.01 {
		t.Errorf("elapsed = %g, want 0.01 from the stepping clock", p.ElapsedSeconds)
	}
	if p.Allocs == 0 || p.AllocBytes < 1<<16 {
		t.Errorf("allocs = %d (%d B), want the 64 KiB allocation inside the section", p.Allocs, p.AllocBytes)
	}
	if p.HeapPeakBytes == 0 || p.Goroutines == 0 {
		t.Errorf("heap peak %d, goroutines %d: want both sampled", p.HeapPeakBytes, p.Goroutines)
	}
}

// TestHeapPeakOutlivesGarbage: a 64 MiB slice allocated and dropped
// inside the section, then collected before Finish, still shows in the
// heap peak, which is a high-water mark rather than the heap at Finish.
func TestHeapPeakOutlivesGarbage(t *testing.T) {
	c := NewCostRecorder(stepClock(time.Millisecond))
	c.Start()
	allocSink = make([]byte, 64<<20)
	allocSink = nil
	runtime.GC()
	c.Finish()
	if p := c.Profile("peak"); p.HeapPeakBytes < 64<<20 {
		t.Errorf("heap peak %d B, want at least the 64 MiB collected before Finish", p.HeapPeakBytes)
	}
}

func TestSelfProfileRoundTrip(t *testing.T) {
	c := NewCostRecorder(stepClock(time.Millisecond))
	c.Start()
	c.Finish()
	p := c.Profile("roundtrip")
	p.CPUProfile = "cpu.pprof"
	path := filepath.Join(t.TempDir(), "self.json")
	if err := p.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSelfProfileFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if *back != *p {
		t.Errorf("roundtrip drifted: %+v vs %+v", back, p)
	}
}

func TestSelfProfileValidateRejects(t *testing.T) {
	good := func() *SelfProfile {
		return NewCostRecorder(stepClock(time.Millisecond)).Profile("x")
	}
	cases := []struct {
		name    string
		corrupt func(*SelfProfile)
		want    string
	}{
		{"schema", func(p *SelfProfile) { p.Schema = "nope" }, "schema"},
		{"v1 schema", func(p *SelfProfile) { p.Schema = "fibersim/self-profile/v1" }, "schema"},
		{"negative elapsed", func(p *SelfProfile) { p.ElapsedSeconds = -1 }, "elapsed_seconds"},
		{"nan elapsed", func(p *SelfProfile) { p.ElapsedSeconds = math.NaN() }, "elapsed_seconds"},
		{"inf gc pause", func(p *SelfProfile) { p.GCPauseSeconds = math.Inf(1) }, "gc_pause_seconds"},
		{"bad gc cycles", func(p *SelfProfile) { p.GCCycles = -2 }, "gc_cycles"},
	}
	for _, tc := range cases {
		p := good()
		tc.corrupt(p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: corrupt profile passed validation", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestSelfProfileParseRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSelfProfile(strings.NewReader(`{"schema":"fibersim/self-profile/v2","bogus":1}`)); err == nil {
		t.Error("unknown field must fail to parse")
	}
}

func TestSelfProfileReport(t *testing.T) {
	p := &SelfProfile{Schema: SelfProfileSchema, Label: "report", ElapsedSeconds: 1.5,
		Allocs: 42, AllocBytes: 3 << 20, GCCycles: 2, HeapPeakBytes: 8 << 20}
	var buf bytes.Buffer
	if err := p.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"report", "elapsed 1.500s", "allocs 42", "3.0 MiB", "gc 2 cycles", "heap peak 8.0 MiB"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "\n") != 1 {
		t.Errorf("report is not one line:\n%s", out)
	}
}

func TestPprofCapture(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	stop, err := StartCPUProfile(cpu)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Errorf("cpu profile missing or empty: %v", err)
	}
	heap := filepath.Join(dir, "heap.pprof")
	if err := WriteHeapProfile(heap); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(heap); err != nil || fi.Size() == 0 {
		t.Errorf("heap profile missing or empty: %v", err)
	}
}
