package common

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"fibersim/internal/core"
	"fibersim/internal/obs"
	"fibersim/internal/omp"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// memKernel has a huge working set: the model must classify it as
// memory-bound on any catalogue machine.
func memKernel() core.Kernel {
	return core.Kernel{
		Name: "triad-like", FlopsPerIter: 2,
		LoadBytesPerIter: 16, StoreBytesPerIter: 8,
		VectorizableFrac: 1, AutoVecFrac: 1, WorkingSetBytes: 1 << 30,
	}
}

// fpuKernel is arithmetic-dense on a tiny working set: compute-bound.
func fpuKernel() core.Kernel {
	return core.Kernel{
		Name: "dgemm-like", FlopsPerIter: 512,
		LoadBytesPerIter: 8, VectorizableFrac: 1, AutoVecFrac: 1,
		WorkingSetBytes: 1 << 14,
	}
}

// TestManifestFromRun drives a real instrumented launch end to end and
// checks the manifest invariants: attributions sum to the recorded
// kernel time, and the dominant category of every kernel agrees with
// the analyzer's bottleneck classification. The recorder's Prometheus
// exposition is pinned byte for byte to testdata/manifest_run.prom
// (-update rewrites it), which covers every recording hook: kernel
// charges, sends, receives, a collective, a static and a dynamic
// parallel region, and the trace drops.
func TestManifestFromRun(t *testing.T) {
	rec := obs.NewRecorder()
	rec.SetMeta("obs-test", "t0")
	cfg := RunConfig{Procs: 2, Threads: 4, TraceCapacity: 4, Recorder: rec}

	exs := make([]core.Exec, cfg.Procs) // per-rank slots: no write race
	res, err := Launch(cfg, func(env *Env) error {
		exs[env.Rank()] = env.exec
		for i := 0; i < 8; i++ { // overflow the 4-event trace logs
			if err := env.Charge(memKernel(), 1e5); err != nil {
				return err
			}
			if err := env.Charge(fpuKernel(), 1e4); err != nil {
				return err
			}
		}
		env.Team.ParallelFor(omp.Schedule{Kind: omp.Static}, 64, func(int, int) {}, nil)
		// 17 chunks over 4 threads: thread 0 grabs one more, so the
		// region is imbalanced.
		env.Team.ParallelFor(omp.Schedule{Kind: omp.Dynamic, Chunk: 4}, 66, func(int, int) {}, nil)
		peer := 1 - env.Rank()
		if _, err := env.Comm.Sendrecv(peer, 0, []float64{1, 2, 3}, peer, 0); err != nil {
			return err
		}
		return env.Comm.Allreduce(0, []float64{1})
	})
	if err != nil {
		t.Fatal(err)
	}
	result := FinishResult("obs-test", cfg, res)
	result.Verified, result.Check = true, 0

	m := BuildManifest(result, rec)
	if err := m.Validate(); err != nil {
		t.Fatalf("manifest invalid: %v", err)
	}
	if m.Config.Procs != 2 || m.Config.Threads != 4 || m.Config.Machine != "a64fx" {
		t.Errorf("manifest config = %+v", m.Config)
	}

	// Round trip through the wire format.
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ParseManifest(&buf); err != nil {
		t.Fatalf("re-parse: %v", err)
	}

	// Per-kernel dominant category must agree with the analyzer.
	mdl := core.NewModel(cfg.Normalized().Machine)
	for _, k := range []core.Kernel{memKernel(), fpuKernel()} {
		a, err := mdl.Analyze(k, 1e5, exs[0])
		if err != nil {
			t.Fatal(err)
		}
		kp, ok := m.Profile.Kernel(k.Name)
		if !ok {
			t.Fatalf("kernel %q missing from profile", k.Name)
		}
		if kp.Category != a.Bottleneck.String() {
			t.Errorf("kernel %q: manifest category %q, analyzer bottleneck %q",
				k.Name, kp.Category, a.Bottleneck)
		}
		if kp.Calls != 16 { // 8 charges on each of 2 ranks
			t.Errorf("kernel %q calls = %d, want 16", k.Name, kp.Calls)
		}
	}

	// Comm accounting flows through: two p2p sends and 2 allreduces.
	if m.Comm.Sends != 2 || m.Comm.SendBytes != 48 {
		t.Errorf("comm summary = %+v", m.Comm)
	}
	if cs := m.Comm.Collectives["allreduce"]; cs.Count != 2 || cs.Bytes != 16 {
		t.Errorf("allreduce stat = %+v", cs)
	}
	if m.Profile.Comm.Ops["send"].Count != 2 {
		t.Errorf("profile send ops = %+v", m.Profile.Comm.Ops)
	}
	if m.Profile.OMP.Regions != 4 { // 2 regions on each of 2 ranks
		t.Errorf("OMP regions = %d, want 4", m.Profile.OMP.Regions)
	}
	if m.Profile.OMP.BarrierSeconds <= 0 || m.Profile.OMP.ImbalanceSeconds <= 0 {
		t.Errorf("OMP profile = %+v, want barrier and imbalance time", m.Profile.OMP)
	}

	// The tiny trace capacity must overflow and be accounted.
	if m.TraceDropped == 0 || m.TraceDropped != result.TraceDropped {
		t.Errorf("trace dropped = %d (result %d), want > 0 and equal",
			m.TraceDropped, result.TraceDropped)
	}
	if m.Profile.TraceDropped != m.TraceDropped {
		t.Errorf("recorder dropped %d, manifest %d", m.Profile.TraceDropped, m.TraceDropped)
	}
	if m.Breakdown["comm"] <= 0 {
		t.Errorf("breakdown = %v, want comm > 0", m.Breakdown)
	}

	var prom bytes.Buffer
	if err := rec.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "manifest_run.prom")
	if *update {
		if err := os.WriteFile(golden, prom.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if prom.String() != string(want) {
		t.Errorf("exposition drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, prom.String(), want)
	}
}

// TestChargeDisabledZeroAlloc pins the acceptance bar: with recording
// and tracing off, Env.Charge must not allocate.
func TestChargeDisabledZeroAlloc(t *testing.T) {
	k := memKernel()
	_, err := Launch(RunConfig{Procs: 1, Threads: 4}, func(env *Env) error {
		if err := env.Charge(k, 1e5); err != nil { // warm the profile map
			return err
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := env.Charge(k, 1e5); err != nil {
				t.Error(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Charge allocates %.1f objects/run with recording off, want 0", allocs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkChargeDisabled(b *testing.B) {
	k := memKernel()
	_, err := Launch(RunConfig{Procs: 1, Threads: 4}, func(env *Env) error {
		if err := env.Charge(k, 1e5); err != nil {
			return err
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := env.Charge(k, 1e5); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkChargeRecording(b *testing.B) {
	k := memKernel()
	cfg := RunConfig{Procs: 1, Threads: 4, Recorder: obs.NewRecorder()}
	_, err := Launch(cfg, func(env *Env) error {
		if err := env.Charge(k, 1e5); err != nil {
			return err
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := env.Charge(k, 1e5); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
