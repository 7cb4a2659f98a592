package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"fibersim/internal/miniapps/common"
)

// moves is README.md's map from each layer metric to the end-to-end
// metric and workload a change to that layer should move.
var moves = []struct{ layer, workload, metric string }{
	{"omp.iter_ns", "stream-flat", "wall_s"},
	{"omp.region_ns.t48", "stream-flat", "cpu_s"},
	{"omp.region_allocs.t48", "suite-hybrid", "allocs"},
	{"layer.omp.cpu_s", "stream-flat", "wall_s"},
	{"layer.numerics.cpu_s", "suite-hybrid", "wall_s"},
	{"mpi.sendrecv_ns.r48", "suite-flat", "wall_s"},
	{"mpi.sendrecv_allocs.r48", "suite-flat", "allocs"},
	{"mpi.allreduce_ns.r48", "suite-flat", "wall_s"},
	{"layer.mpi.cpu_s", "suite-flat", "wall_s"},
	{"mpi.p2p_msgs", "suite-flat", "allocs"},
	{"obs.mpiop_ns", "suite-flat", "cpu_s"},
	{"obs.kernelcharge_ns", "suite-flat", "cpu_s"},
	{"layer.obs.cpu_s", "suite-flat", "cpu_s"},
	{"layer.gc.cpu_s", "suite-flat", "cpu_s"},
	{"runtime.gc_cycles", "stream-flat", "peak_rss_mib"},
	{"common.launch_ns.48x1", "scorecard", "wall_s"},
	{"harness.cells", "scorecard", "wall_s"},
	{"obs.manifest_ns", "suite-hybrid", "wall_s"},
	{"perfdb.append_ns", "suite-hybrid", "wall_s"},
	{"layer.perfdb.cpu_s", "suite-hybrid", "wall_s"},
}

func TestSpecMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if got := sortedKeys(raw); !reflect.DeepEqual(got, wantKeys) {
		t.Fatalf("top-level keys %v, want %v", got, wantKeys)
	}
	var s struct {
		Workloads []map[string]string          `json:"workloads"`
		EndToEnd  []map[string]json.RawMessage `json:"end_to_end"`
		PerLayer  []map[string]json.RawMessage `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 || len(s.EndToEnd) > 16 || len(s.PerLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end and %d layer metrics", len(s.Workloads), len(s.EndToEnd), len(s.PerLayer))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	var names []string
	for _, w := range s.Workloads {
		if got := sortedKeys(w); !reflect.DeepEqual(got, []string{"name", "why"}) || strings.Contains(w["why"], "\n") {
			t.Errorf("workload %v: want one-line name and why", w)
		}
		checkName(w["name"])
		names = append(names, w["name"])
	}
	var progNames []string
	for _, w := range workloads {
		progNames = append(progNames, w.name)
	}
	if !reflect.DeepEqual(names, progNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, progNames)
	}
	metrics := func(list []map[string]json.RawMessage, keys []string, defs []metricDef) {
		if len(list) != len(defs) {
			t.Errorf("BENCHMARK.json declares %d metrics, program emits %d", len(list), len(defs))
		}
		for i, m := range list {
			if got := sortedKeys(m); !reflect.DeepEqual(got, keys) {
				t.Errorf("metric %d keys %v, want %v", i, got, keys)
				continue
			}
			var name, unit, better string
			_ = json.Unmarshal(m["name"], &name)
			_ = json.Unmarshal(m["unit"], &unit)
			_ = json.Unmarshal(m["better"], &better)
			checkName(name)
			if i < len(defs) && (defs[i].name != name || defs[i].unit != unit) {
				t.Errorf("metric %d is %s [%s], program emits %s [%s]", i, name, unit, defs[i].name, defs[i].unit)
			}
			if better != "lower" && better != "higher" {
				t.Errorf("%s: better %q", name, better)
			}
			if b, ok := m["bound"]; ok {
				var bound float64
				if err := json.Unmarshal(b, &bound); err != nil || bound <= 0 || bound > 0.25 {
					t.Errorf("%s: bound %s outside (0, 0.25]", name, b)
				}
			}
		}
	}
	metrics(s.EndToEnd, []string{"better", "bound", "name", "unit"}, endToEnd)
	metrics(s.PerLayer, []string{"better", "name", "unit"}, perLayer)
	if endToEnd[0] != (metricDef{"setup_s", "s"}) {
		t.Errorf("first end-to-end metric %v, want setup_s", endToEnd[0])
	}
	for _, m := range moves {
		if !seen[m.layer] || !seen[m.workload] || !seen[m.metric] {
			t.Errorf("prediction %v names something BENCHMARK.json does not declare", m)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// testOptions runs at test size on apps that decompose to 48 ranks and
// 48 threads there, with no goldens and short per-operation loops.
func testOptions(t *testing.T) options {
	return options{
		size:      common.SizeTest,
		apps:      map[string]bool{"stream": true, "ntchem": true},
		goldenDir: t.TempDir(),
		tmpRoot:   t.TempDir(),
		opScale:   0.002,
	}
}

func TestWorkloadsEmitEveryName(t *testing.T) {
	o := testOptions(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := run(w.name, 7, 0, traced, false, 0, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := rec.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, d.name, m, d.unit)
				}
			}
			if rec.Attempted < 1 || rec.Passes != 1 {
				t.Errorf("%s traced=%v: attempted %d in %d passes", w.name, traced, rec.Attempted, rec.Passes)
			}
			// The scorecard's findings do not hold at test size; grid
			// cells must all verify.
			if w.inGrid != nil && rec.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d failed", w.name, traced, rec.Failed, rec.Attempted)
			}
			var out bytes.Buffer
			if err := emit(&out, rec); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatal(err)
			}
			if got := sortedKeys(last); !reflect.DeepEqual(got, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Errorf("%s: result line keys %v", w.name, got)
			}
		}
	}
}

func TestGoldenMismatchFails(t *testing.T) {
	o := testOptions(t)
	if _, err := run("suite-hybrid", 7, 0, false, true, 0, o); err != nil {
		t.Fatal(err)
	}
	rec, err := run("suite-hybrid", 7, 0, false, false, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failed != 0 || rec.Attempted != 8 {
		t.Fatalf("against its own golden: %d of %d failed", rec.Failed, rec.Attempted)
	}
	g, err := readGolden(o.goldenDir, "suite-hybrid", 7)
	if err != nil || g == nil {
		t.Fatalf("golden not written: %v", err)
	}
	g.Ops[1].TimeSeconds *= 1 + 1e-12
	if err := writeGolden(o.goldenDir, *g); err != nil {
		t.Fatal(err)
	}
	rec, err = run("suite-hybrid", 7, 0, false, false, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failed != 1 {
		t.Errorf("perturbed golden: %d of %d failed, want 1", rec.Failed, rec.Attempted)
	}
}

func TestOpMatches(t *testing.T) {
	cell := op{Op: "nicam 48x1 tuned", TimeSeconds: 1, GFlops: 2, CommBytes: 3, Verified: true}
	near := cell
	near.TimeSeconds = 1 + 1e-15
	if near.matches(cell) {
		t.Error("a deterministic cell matched a different time")
	}
	modylas := op{Op: "modylas 48x1 as-is", TimeSeconds: 1, GFlops: 2, CommBytes: 3, Verified: true}
	drift := modylas
	drift.TimeSeconds, drift.GFlops = 1+2e-4, 2-2e-4
	if !drift.matches(modylas) {
		t.Error("modylas 48x1 failed within its tolerance")
	}
	drift.TimeSeconds = 1.01
	if drift.matches(modylas) {
		t.Error("modylas 48x1 matched outside its tolerance")
	}
	drift = modylas
	drift.CommBytes++
	if drift.matches(modylas) {
		t.Error("modylas 48x1 matched with different comm bytes")
	}
}

// Protocol-buffer encoding for the synthetic profile.
func pbKey(b []byte, num, wire int) []byte { return appendUvarint(b, uint64(num<<3|wire)) }

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbInt(b []byte, num int, v uint64) []byte { return appendUvarint(pbKey(b, num, 0), v) }

func pbMsg(b []byte, num int, msg []byte) []byte {
	return append(appendUvarint(pbKey(b, num, 2), uint64(len(msg))), msg...)
}

func pbPacked(b []byte, num int, vs ...uint64) []byte {
	var p []byte
	for _, v := range vs {
		p = appendUvarint(p, v)
	}
	return pbMsg(b, num, p)
}

// syntheticProfile builds a profile whose samples each hold the given
// stacks (leaf first; an inner slice is one location with inlined
// frames, innermost first) and CPU nanoseconds.
func syntheticProfile(samples []struct {
	stack [][]string
	ns    uint64
}) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	var prof []byte
	prof = pbMsg(prof, 1, pbInt(pbInt(nil, 1, 1), 2, 2))
	prof = pbMsg(prof, 1, pbInt(pbInt(nil, 1, 3), 2, 4))
	funcs := map[string]uint64{}
	var locID uint64
	for i, s := range samples {
		var locs []uint64
		for _, frames := range s.stack {
			locID++
			loc := pbInt(nil, 1, locID)
			for _, f := range frames {
				if funcs[f] == 0 {
					funcs[f] = uint64(len(funcs) + 1)
					strs = append(strs, f)
					prof = pbMsg(prof, 5, pbInt(pbInt(nil, 1, funcs[f]), 2, uint64(len(strs)-1)))
				}
				loc = pbMsg(loc, 4, pbInt(nil, 1, funcs[f]))
			}
			prof = pbMsg(prof, 4, loc)
			locs = append(locs, locID)
		}
		var sample []byte
		if i%2 == 0 {
			sample = pbPacked(sample, 1, locs...)
			sample = pbPacked(sample, 2, 1, s.ns)
		} else {
			for _, l := range locs {
				sample = pbInt(sample, 1, l)
			}
			sample = pbInt(pbInt(sample, 2, 1), 2, s.ns)
		}
		prof = pbMsg(prof, 2, sample)
	}
	for _, s := range strs {
		prof = pbMsg(prof, 6, []byte(s))
	}
	return prof
}

func TestAttributionRule(t *testing.T) {
	prof := syntheticProfile([]struct {
		stack [][]string
		ns    uint64
	}{
		// Runtime work is charged to the innermost fibersim caller.
		{[][]string{{"runtime.mallocgc"}, {"fibersim/internal/mpi.(*Comm).Send"}, {"fibersim/internal/miniapps/ffb.solve"}}, 10},
		{[][]string{{"runtime.gcBgMarkWorker"}}, 20},
		// Inlined frames share a location, innermost first.
		{[][]string{{"fibersim/internal/vtime.(*Clock).Advance", "fibersim/internal/omp.(*Team).ParallelFor"}}, 5},
		{[][]string{{"fibersim/internal/miniapps/stream.triad.func1"}, {"fibersim/internal/omp.(*Team).execute.func1"}}, 40},
		{[][]string{{"fibersim/internal/miniapps/common.(*Env).ChargeWith"}}, 1},
		{[][]string{{"fibersim/internal/simnet.(*Fabric).Allgather"}}, 2},
		{[][]string{{"fibersim/internal/obs.fold[go.shape.struct { fibersim/internal/x.y }]"}}, 3},
		{[][]string{{"fibersim/internal/affinity.Plan"}, {"fibersim/benchmark.main"}}, 4},
	})
	want := map[string]float64{"mpi": 12, "gc": 20, "vtime": 5, "numerics": 40, "common": 1, "obs": 3, "other": 4}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	for _, in := range [][]byte{prof, gz.Bytes()} {
		got, err := attribute(in)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("attribution %v, want %v", got, want)
		}
	}
	if _, err := attribute(prof[:len(prof)-3]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

// TestAttributionReadsRuntimeProfiles decodes a real CPU profile of a
// busy loop in this package.
func TestAttributionReadsRuntimeProfiles(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	x := 0.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*0.5 + 1
		}
	}
	pprof.StopCPUProfile()
	got, err := attribute(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got["other"] <= 0 {
		t.Errorf("busy loop in package main not charged to other: %v (x=%g)", got, x)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles 1..10 = %v", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got := quartiles([]float64{1, 2}); got != [3]float64{0.75, 1.5, 2.25} {
		t.Errorf("quartiles 1,2 = %v", got)
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}
	base := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10.05, 9.95}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		m    specMetric
		a, b []float64
		want string
	}{
		{"same code", lower, base, base, "ok"},
		{"faster in every pair", lower, base, scaled(0.8), "improve"},
		{"slower past the bound", lower, base, scaled(1.2), "regress"},
		{"slower within the bound", lower, base, scaled(1.05), "ok"},
		{"spread wider than the bound", lower, []float64{5, 15, 5, 15, 10}, []float64{10, 10, 10, 10, 10}, "unresolved"},
		{"higher is better", specMetric{Name: "rate", Better: "higher", Bound: 0.1}, base, scaled(0.8), "regress"},
	} {
		if got := judge(c.m, c.a, c.b).Verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, walls ...float64) string {
		var b bytes.Buffer
		for _, w := range walls {
			r := record{Schema: recordSchema, Workload: "stream-flat", Metrics: map[string]metric{"wall_s": {w, "s"}}}
			if err := emit(&b, r); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("parent.jsonl", 10, 10.1, 9.9, 10, 10.2)
	slower := write("slower.jsonl", 13, 13.1, 12.9, 13, 13.2)
	var out, errOut bytes.Buffer
	if code := compareMain([]string{"-spec", "../BENCHMARK.json", parent, parent}, &out, &errOut); code != 0 {
		t.Errorf("same runs: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := compareMain([]string{"-spec", "../BENCHMARK.json", parent, slower}, &out, &errOut); code != 1 {
		t.Errorf("30%% slower: exit %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "regress") {
		t.Errorf("no regress row:\n%s", out.String())
	}
}
