package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "hits", Labels{"app": "x"})
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %g, want 3.5", got)
	}
	// Same name+labels resolves to the same series.
	if r.Counter("hits_total", "hits", Labels{"app": "x"}) != c {
		t.Error("lookup did not return the existing counter")
	}
	g := r.Gauge("depth", "queue depth", nil)
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge = %g, want 2.5", got)
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative counter add must panic")
		}
	}()
	NewRegistry().Counter("c", "", nil).Add(-1)
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", nil)
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("m", "", nil)
}

// TestHistogramBucketEdges pins the inclusive-upper-bound ("le")
// semantics: a sample exactly on a bound lands in that bound's bucket.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 10, 100}, nil)
	for _, v := range []float64{0.5, 1, 1.0000001, 10, 100, 100.5} {
		h.Observe(v)
	}
	uppers, cum := h.Buckets()
	if len(uppers) != 3 {
		t.Fatalf("got %d buckets", len(uppers))
	}
	// le=1: {0.5, 1}; le=10: +{1.0000001, 10}; le=100: +{100}; +Inf: +{100.5}
	wantCum := []int64{2, 4, 5}
	for i := range wantCum {
		if cum[i] != wantCum[i] {
			t.Errorf("cumulative[le=%g] = %d, want %d", uppers[i], cum[i], wantCum[i])
		}
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+1.0000001+10+100+100.5; got != want {
		t.Errorf("sum = %g, want %g", got, want)
	}
}

func TestHistogramObserveN(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 10}, nil)
	h.ObserveN(0.5, 3)
	h.ObserveN(50, 2)
	h.ObserveN(1, 0)  // no-op
	h.ObserveN(1, -4) // no-op
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 3*0.5+2*50.0; got != want {
		t.Errorf("sum = %g, want %g", got, want)
	}
	_, cum := h.Buckets()
	if cum[0] != 3 || cum[1] != 3 {
		t.Errorf("cumulative = %v, want [3 3] (+Inf holds 2)", cum)
	}
}

func TestLogBuckets(t *testing.T) {
	b := LogBuckets(1e-9, 10, 4)
	want := []float64{1e-9, 1e-8, 1e-7, 1e-6}
	for i := range want {
		if rel := relErr(b[i], want[i]); rel > 1e-12 {
			t.Errorf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid log buckets must panic")
		}
	}()
	LogBuckets(0, 10, 3)
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("ops_total", "", Labels{"rank": "0"}).Inc()
				r.Histogram("t", "", []float64{1, 2}, nil).Observe(1.5)
				r.Gauge("g", "", nil).Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("ops_total", "", Labels{"rank": "0"}).Value(); got != 16*200 {
		t.Errorf("counter = %g, want %d", got, 16*200)
	}
	if got := r.Histogram("t", "", []float64{1, 2}, nil).Count(); got != 16*200 {
		t.Errorf("histogram count = %d, want %d", got, 16*200)
	}
}

// goldenRegistry builds the fixture behind the exposition golden file:
// the modelled-hardware families plus one runtime-sampler pass over a
// fixed synthetic reading, so the fibersim_runtime_* self-observability
// families are pinned too.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("fibersim_kernel_calls_total", "modelled kernel charges",
		Labels{"app": "stream", "kernel": "triad", "rank": "0"}).Add(10)
	r.Counter("fibersim_kernel_calls_total", "modelled kernel charges",
		Labels{"app": "stream", "kernel": "copy", "rank": "0"}).Add(10)
	r.Gauge("fibersim_run_time_seconds", "virtual makespan", nil).Set(0.125)
	h := r.Histogram("fibersim_kernel_charge_seconds", "charge durations",
		[]float64{1e-6, 1e-3, 1}, Labels{"kernel": "triad"})
	h.Observe(5e-7)
	h.Observe(5e-4)
	h.Observe(2)

	s, err := NewRuntimeSampler(RuntimeSamplerConfig{
		Registry: r,
		Now:      func() time.Time { return time.Unix(1700000000, 0) },
		Read:     goldenReading,
	})
	if err != nil {
		panic(err)
	}
	s.Sample()
	return r
}

// goldenReading is the synthetic runtime telemetry behind the golden
// fibersim_runtime_* families.
func goldenReading() RuntimeReading {
	return RuntimeReading{
		HeapLiveBytes: 48 << 20,
		HeapGoalBytes: 64 << 20,
		Goroutines:    52,
		GCCycles:      7,
		AllocBytes:    512 << 20,
		GCPauses: HistReading{
			Buckets: []float64{0, 1e-6, 1e-4, math.Inf(1)},
			Counts:  []uint64{3, 4, 1},
		},
		SchedLatency: HistReading{
			Buckets: []float64{0, 1e-6, 1e-3, math.Inf(1)},
			Counts:  []uint64{100, 20, 2},
		},
	}
}

func TestPrometheusGolden(t *testing.T) {
	checkExpositionGolden(t, goldenRegistry(), "exposition.prom")
}

// checkExpositionGolden compares reg's Prometheus text exposition with
// testdata/name byte for byte (-update rewrites the file).
func checkExpositionGolden(t *testing.T, reg *Registry, name string) {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if buf.String() != string(want) {
		t.Errorf("exposition drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, buf.String(), want)
	}
}

func TestRegistryJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var samples []MetricSample
	if err := json.Unmarshal(buf.Bytes(), &samples); err != nil {
		t.Fatal(err)
	}
	if len(samples) != 11 {
		t.Fatalf("got %d samples, want 11", len(samples))
	}
	// Families are name-sorted; the histogram comes second.
	h := samples[2]
	if h.Name != "fibersim_kernel_charge_seconds" || h.Kind != "histogram" {
		t.Fatalf("sample 2 = %+v", h)
	}
	if h.Count != 3 || len(h.Buckets) != 3 {
		t.Errorf("histogram sample: count=%d buckets=%v", h.Count, h.Buckets)
	}
}
