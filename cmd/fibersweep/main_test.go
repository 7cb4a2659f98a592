package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fibersim/internal/arch"
	"fibersim/internal/core"
	"fibersim/internal/harness"
	"fibersim/internal/miniapps/common"
	"fibersim/internal/obs"
)

func TestDecompsFor(t *testing.T) {
	m := arch.MustLookup("a64fx")
	ds := decompsFor(m)
	if len(ds) == 0 {
		t.Fatal("no decompositions")
	}
	seen48 := false
	for _, d := range ds {
		if d[0]*d[1] != 48 {
			t.Errorf("decomposition %v does not cover 48 cores", d)
		}
		if d[0] == 48 {
			seen48 = true
		}
	}
	if !seen48 {
		t.Error("48x1 missing")
	}
	// K computer: 8 cores.
	for _, d := range decompsFor(arch.MustLookup("k")) {
		if d[0]*d[1] != 8 {
			t.Errorf("K decomposition %v", d)
		}
	}
}

func TestParseCompilerNames(t *testing.T) {
	for _, name := range []string{"as-is", "nosimd", "simd", "sched", "tuned"} {
		if _, err := harness.ParseCompiler(name); err != nil {
			t.Errorf("ParseCompiler(%q): %v", name, err)
		}
	}
	if _, err := harness.ParseCompiler("O3"); err == nil {
		t.Error("unknown config must fail")
	}
}

func TestParseTraceSelector(t *testing.T) {
	cases := []struct {
		app, config string
		wantErr     bool
		sel         traceSelector
	}{
		{"", "", false, traceSelector{}},
		{"stream", "", false, traceSelector{app: "stream"}},
		{"", "4x12", false, traceSelector{decomp: "4x12"}},
		{"", "a64fx:4x12", false, traceSelector{machine: "a64fx", decomp: "4x12"}},
		{"", "a64fx:4x12:tuned", false, traceSelector{machine: "a64fx", decomp: "4x12", compiler: "tuned"}},
		{"", "a:b:c:d", true, traceSelector{}},
		{"", "nodecomp", true, traceSelector{}},
	}
	for _, tc := range cases {
		sel, err := parseTraceSelector(tc.app, tc.config)
		if tc.wantErr {
			if err == nil {
				t.Errorf("parseTraceSelector(%q, %q): want error", tc.app, tc.config)
			}
			continue
		}
		if err != nil || sel != tc.sel {
			t.Errorf("parseTraceSelector(%q, %q) = %+v, %v; want %+v",
				tc.app, tc.config, sel, err, tc.sel)
		}
	}
}

func TestTraceSelectorMatches(t *testing.T) {
	sel := traceSelector{app: "stream", machine: "a64fx", decomp: "4x12", compiler: "tuned"}
	if !sel.matches("stream", "a64fx", [2]int{4, 12}, "tuned") {
		t.Error("exact selector must match")
	}
	if sel.matches("mvmc", "a64fx", [2]int{4, 12}, "tuned") {
		t.Error("wrong app must not match")
	}
	if sel.matches("stream", "a64fx", [2]int{2, 24}, "tuned") {
		t.Error("wrong decomposition must not match")
	}
	if !(traceSelector{}).matches("anything", "skylake", [2]int{1, 1}, "as-is") {
		t.Error("zero selector is a wildcard")
	}
}

// flakyApp is a stub miniapp whose Run panics or fails a configurable
// number of times before succeeding.
type flakyApp struct {
	failures *int // decremented per attempt; <=0 means succeed
	panics   bool
}

func (flakyApp) Name() string                      { return "flaky" }
func (flakyApp) Description() string               { return "test stub" }
func (flakyApp) Kernels(common.Size) []core.Kernel { return nil }
func (a flakyApp) Run(common.RunConfig) (common.Result, error) {
	if *a.failures > 0 {
		*a.failures--
		if a.panics {
			panic("synthetic miniapp panic")
		}
		return common.Result{}, errors.New("synthetic failure")
	}
	return common.Result{App: "flaky", Time: 1, Verified: true}, nil
}

func TestRunOneRecoversPanics(t *testing.T) {
	n := 1000 // never succeeds within the retry budget
	_, err := runOne(context.Background(), flakyApp{failures: &n, panics: true}, common.RunConfig{}, 0)
	if err == nil || !strings.Contains(err.Error(), "panic: synthetic miniapp panic") {
		t.Fatalf("want recovered panic error, got %v", err)
	}
}

func TestRunOneRetriesUntilSuccess(t *testing.T) {
	n := 2
	res, err := runOne(context.Background(), flakyApp{failures: &n}, common.RunConfig{}, 2)
	if err != nil {
		t.Fatalf("run should succeed on the third attempt: %v", err)
	}
	if !res.Verified || n != 0 {
		t.Fatalf("unexpected result %+v (failures left %d)", res, n)
	}
}

func TestRunOneExhaustsRetries(t *testing.T) {
	n := 5
	if _, err := runOne(context.Background(), flakyApp{failures: &n}, common.RunConfig{}, 1); err == nil {
		t.Fatal("want error after exhausting retries")
	}
	if n != 5-2 {
		t.Fatalf("want exactly 2 attempts, %d failures left", n)
	}
}

// TestRunOneCancelAbortsBackoff pins the Ctrl-C contract: a cancelled
// context makes the backoff sleep return immediately, so a failing run
// surfaces its error after the in-flight attempt instead of sleeping
// out the remaining retry schedule.
func TestRunOneCancelAbortsBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n := 1000
	if _, err := runOne(ctx, flakyApp{failures: &n}, common.RunConfig{}, 100); err == nil {
		t.Fatal("want the attempt's error, got nil")
	}
	if n != 999 {
		t.Fatalf("want exactly 1 attempt under a cancelled context, %d failures left", n)
	}
}

func TestSweepStateRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.state")
	s, err := loadState(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{
		"stream|a64fx|4x12|as-is": {"stream", "a64fx", "4x12", "as-is", "1ms"},
		"stream|a64fx|48x1|tuned": {"stream", "a64fx", "48x1", "tuned", "2ms"},
	}
	for k, cells := range rows {
		if err := s.record(k, cells); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	back, err := loadState(path)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if len(back.done) != len(rows) {
		t.Fatalf("reloaded %d rows, want %d", len(back.done), len(rows))
	}
	for k, cells := range rows {
		got, ok := back.done[k]
		if !ok || strings.Join(got, ",") != strings.Join(cells, ",") {
			t.Fatalf("row %q did not round-trip: %v", k, got)
		}
	}
}

func TestSweepStateTornTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.state")
	s, err := loadState(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.record("a|b|1x1|as-is", []string{"ok"}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Simulate a kill mid-write: append half a JSON line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"c|d|2x2|as-`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	back, err := loadState(path)
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	defer back.Close()
	if len(back.done) != 1 {
		t.Fatalf("want the 1 intact row, got %d", len(back.done))
	}
	// The next record must land on a fresh line, not glued to the torn
	// fragment.
	if err := back.record("e|f|4x4|as-is", []string{"ok2"}); err != nil {
		t.Fatal(err)
	}
	back.Close()
	again, err := loadState(path)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if _, ok := again.done["e|f|4x4|as-is"]; !ok {
		t.Fatal("row recorded after a torn tail was lost")
	}
}

func TestSweepStateRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-checkpoint")
	if err := os.WriteFile(path, []byte("hello\nworld\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadState(path); err == nil {
		t.Fatal("loadState accepted a non-checkpoint file")
	}
}

func TestSweepStateEmptyPathDisabled(t *testing.T) {
	s, err := loadState("")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.record("k", []string{"v"}); err != nil {
		t.Fatal(err)
	}
	if len(s.done) != 1 {
		t.Fatal("in-memory record must still dedupe")
	}
	s.Close()
}

func TestProgressRowFresh(t *testing.T) {
	res := common.Result{Time: 0.25, Flops: 1e9, Verified: true}
	p := progressRow("stream", "a64fx", [2]int{4, 12}, "as-is", common.SizeTest,
		3, 6, res, nil, false, nil)
	if err := p.Validate(); err != nil {
		t.Fatalf("fresh row does not validate: %v", err)
	}
	if p.Done != 3 || p.Total != 6 || p.TimeSeconds != 0.25 || !p.Verified || p.Resumed {
		t.Errorf("fresh row = %+v", p)
	}
	if p.GFlops != res.GFlops() {
		t.Errorf("gflops = %g, want %g", p.GFlops, res.GFlops())
	}
}

func TestProgressRowErrorAndResumed(t *testing.T) {
	p := progressRow("stream", "a64fx", [2]int{1, 48}, "tuned", common.SizeSmall,
		1, 6, common.Result{}, errors.New("panic: synthetic"), false, nil)
	if err := p.Validate(); err != nil {
		t.Fatalf("error row does not validate: %v", err)
	}
	if p.Err != "panic: synthetic" || p.TimeSeconds != 0 || p.Verified {
		t.Errorf("error row = %+v", p)
	}

	// A resumed row carries identity and counters but no numbers, even
	// if a (stale) result happens to be lying around.
	p = progressRow("stream", "a64fx", [2]int{48, 1}, "as-is", common.SizeTest,
		2, 6, common.Result{Time: 9, Verified: true}, nil, true, nil)
	if err := p.Validate(); err != nil {
		t.Fatalf("resumed row does not validate: %v", err)
	}
	if !p.Resumed || p.TimeSeconds != 0 || p.Verified || p.Err != "" {
		t.Errorf("resumed row = %+v", p)
	}
}

// TestProgressRowSelfProfile: under -selfprofile a fresh row's
// wall_seconds is the cell's measured elapsed time and its heap peak
// the profile's.
func TestProgressRowSelfProfile(t *testing.T) {
	self := &obs.SelfProfile{Schema: obs.SelfProfileSchema, ElapsedSeconds: 0.0859, HeapPeakBytes: 3 << 20}
	res := common.Result{Time: 0.25, Flops: 1e9, Verified: true}
	p := progressRow("stream", "a64fx", [2]int{48, 1}, "as-is", common.SizeTest,
		1, 24, res, nil, false, self)
	if err := p.Validate(); err != nil {
		t.Fatalf("profiled row does not validate: %v", err)
	}
	if p.WallSeconds != 0.0859 || p.HeapPeakBytes != 3<<20 {
		t.Errorf("profiled row wall=%g heap=%d, want 0.0859 and %d", p.WallSeconds, p.HeapPeakBytes, 3<<20)
	}
}
