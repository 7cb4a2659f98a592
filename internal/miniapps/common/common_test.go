package common

import (
	"math"
	"strings"
	"testing"

	"fibersim/internal/arch"
	"fibersim/internal/core"
	"fibersim/internal/vtime"
)

func TestSizeRoundTrip(t *testing.T) {
	for _, s := range []Size{SizeTest, SizeSmall, SizeMedium} {
		got, err := ParseSize(s.String())
		if err != nil || got != s {
			t.Errorf("round trip %v: %v %v", s, got, err)
		}
	}
	if _, err := ParseSize("huge"); err == nil {
		t.Error("unknown size must fail")
	}
	if Size(9).String() == "" {
		t.Error("unknown size should print")
	}
}

func TestRunConfigDefaultsAndString(t *testing.T) {
	c := RunConfig{}.withDefaults()
	if c.Machine == nil || c.Procs != 1 || c.Threads != 1 || c.Bind.Stride != 1 || c.Seed == 0 {
		t.Errorf("defaults wrong: %+v", c)
	}
	if (RunConfig{Procs: 4, Threads: 12}).String() == "" {
		t.Error("String should render")
	}
	s := (RunConfig{Procs: 4, Threads: 12, NodeStride: 4}).String()
	if want := "nodestride4"; !strings.Contains(s, want) {
		t.Errorf("String %q should mention %q", s, want)
	}
}

type fakeApp struct{ name string }

func (f fakeApp) Name() string                      { return f.name }
func (f fakeApp) Description() string               { return "fake" }
func (f fakeApp) Kernels(Size) []core.Kernel        { return nil }
func (f fakeApp) Run(cfg RunConfig) (Result, error) { return Result{App: f.name}, nil }

func TestRegistry(t *testing.T) {
	// The registry is process-wide: with -count above 1 the fake is
	// already there from the previous run.
	if _, err := Lookup("zz-fake"); err != nil {
		Register(fakeApp{name: "zz-fake"})
	}
	a, err := Lookup("zz-fake")
	if err != nil || a.Name() != "zz-fake" {
		t.Fatalf("Lookup failed: %v", err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown app must fail")
	}
	names := Names()
	found := false
	for i, n := range names {
		if n == "zz-fake" {
			found = true
		}
		if i > 0 && names[i-1] >= n {
			t.Error("Names not sorted")
		}
	}
	if !found {
		t.Error("registered app missing from Names")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register must panic")
		}
	}()
	Register(fakeApp{name: "zz-fake"})
}

func TestLaunchWiresEnv(t *testing.T) {
	cfg := RunConfig{Procs: 4, Threads: 12}
	res, err := Launch(cfg, func(env *Env) error {
		if env.Procs() != 4 || env.Threads() != 12 {
			t.Errorf("env shape wrong: %d %d", env.Procs(), env.Threads())
		}
		if env.Rank() < 0 || env.Rank() >= 4 {
			t.Errorf("bad rank %d", env.Rank())
		}
		if env.exec.DomainLoad == nil || len(env.exec.ThreadCores) != 12 {
			t.Error("exec context incomplete")
		}
		// Charge a kernel and confirm the clock moves.
		k := core.Kernel{
			Name: "t", FlopsPerIter: 10, LoadBytesPerIter: 8,
			VectorizableFrac: 1, AutoVecFrac: 1, WorkingSetBytes: 1 << 28,
		}
		if err := env.Charge(k, 1e6); err != nil {
			return err
		}
		if env.Comm.Clock().Now() <= 0 {
			t.Error("Charge did not advance clock")
		}
		return env.Comm.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxTime() <= 0 {
		t.Error("run should take virtual time")
	}
}

func TestLaunchNodeStride(t *testing.T) {
	cfg := RunConfig{Procs: 4, Threads: 12, NodeStride: 4}
	_, err := Launch(cfg, func(env *Env) error {
		if env.Team.DomainsSpanned() != 4 {
			t.Errorf("stride-4 team spans %d domains, want 4", env.Team.DomainsSpanned())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLaunchRejectsBadPlacement(t *testing.T) {
	if _, err := Launch(RunConfig{Procs: 100, Threads: 100}, func(*Env) error { return nil }); err == nil {
		t.Error("oversubscribed launch must fail")
	}
	// NodeStride < 0 falls back to Alloc/Bind.
	if _, err := Launch(RunConfig{Procs: 1, Threads: 1, NodeStride: -1}, func(*Env) error { return nil }); err != nil {
		t.Errorf("launch with NodeStride -1 failed: %v", err)
	}
	if _, err := Launch(RunConfig{Procs: 49, Threads: 1, NodeStride: 2}, func(*Env) error { return nil }); err == nil {
		t.Error("oversubscribed stride launch must fail")
	}
}

func TestFinishResultAndGFlops(t *testing.T) {
	cfg := RunConfig{Procs: 2, Threads: 2}
	runRes, err := Launch(cfg, func(env *Env) error {
		env.Comm.Clock().Advance(1, vtime.Compute)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r := FinishResult("fake", cfg, runRes)
	r.Flops = 2e9
	if r.App != "fake" || r.Time != 1 {
		t.Errorf("FinishResult wrong: %+v", r)
	}
	if g := r.GFlops(); math.Abs(g-2) > 1e-12 {
		t.Errorf("GFlops = %g, want 2", g)
	}
	var zero Result
	if zero.GFlops() != 0 {
		t.Error("zero result GFlops must be 0")
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNG not deterministic")
		}
	}
	if NewRNG(0).Uint64() == 0 {
		t.Error("seed 0 should be remapped")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	var sum float64
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
		sum += f
		if n := r.Intn(10); n < 0 || n >= 10 {
			t.Fatalf("Intn out of range: %d", n)
		}
	}
	if mean := sum / 10000; mean < 0.45 || mean > 0.55 {
		t.Errorf("Float64 mean = %g, want ~0.5", mean)
	}
	var m, v float64
	const n = 20000
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		m += x
		v += x * x
	}
	m /= n
	v = v/n - m*m
	if math.Abs(m) > 0.05 || math.Abs(v-1) > 0.1 {
		t.Errorf("NormFloat64 mean=%g var=%g, want ~0,1", m, v)
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) must panic")
		}
	}()
	r.Intn(0)
}

func TestEnvChargeInvalidKernel(t *testing.T) {
	_, err := Launch(RunConfig{Procs: 1, Threads: 1}, func(env *Env) error {
		return env.Charge(core.Kernel{}, 1)
	})
	if err == nil {
		t.Error("charging an invalid kernel must error")
	}
}

func TestLaunchOnAllMachines(t *testing.T) {
	for _, name := range arch.Names() {
		m := arch.MustLookup(name)
		cfg := RunConfig{Machine: m, Procs: 2, Threads: 2}
		if _, err := Launch(cfg, func(env *Env) error {
			return env.Comm.Barrier()
		}); err != nil {
			t.Errorf("launch on %s: %v", name, err)
		}
	}
}

func TestWorkingSetScale(t *testing.T) {
	if WorkingSetScale(SizeTest) != 1 {
		t.Error("test size must be unscaled")
	}
	if WorkingSetScale(SizeSmall) <= WorkingSetScale(SizeTest) ||
		WorkingSetScale(SizeMedium) <= WorkingSetScale(SizeSmall) {
		t.Error("working-set scale must grow with size")
	}
}
