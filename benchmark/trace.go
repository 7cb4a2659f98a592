package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"fibersim/internal/affinity"
	"fibersim/internal/arch"
	"fibersim/internal/core"
	"fibersim/internal/harness"
	"fibersim/internal/miniapps/common"
	"fibersim/internal/mpi"
	"fibersim/internal/obs"
	"fibersim/internal/omp"
	"fibersim/internal/perfdb"
	"fibersim/internal/vtime"
)

// perLayer lists the traced run's metrics in BENCHMARK.json order.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{"layer." + l + ".cpu_s", "s"})
	}
	return append(defs,
		metricDef{"harness.cells", "count"},
		metricDef{"core.charges", "count"},
		metricDef{"core.charged_iters", "count"},
		metricDef{"omp.regions", "count"},
		metricDef{"mpi.p2p_msgs", "count"},
		metricDef{"mpi.p2p_bytes", "B"},
		metricDef{"mpi.collectives", "count"},
		metricDef{"mpi.collective_bytes", "B"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_s", "s"},
		metricDef{"traced_wall_s", "s"},
		metricDef{"vtime.advance_ns", "ns"},
		metricDef{"core.charge_ns", "ns"},
		metricDef{"core.charge_allocs", "allocs/op"},
		metricDef{"omp.iter_ns", "ns"},
		metricDef{"omp.iter_floor_ns", "ns"},
		metricDef{"omp.region_ns.t1", "ns"},
		metricDef{"omp.region_ns.t48", "ns"},
		metricDef{"omp.region_allocs.t48", "allocs/op"},
		metricDef{"mpi.run_ns.r48", "ns"},
		metricDef{"mpi.sendrecv_ns.r48", "ns"},
		metricDef{"mpi.sendrecv_allocs.r48", "allocs/op"},
		metricDef{"mpi.allreduce_ns.r48", "ns"},
		metricDef{"mpi.allreduce_allocs.r48", "allocs/op"},
		metricDef{"common.launch_ns.48x1", "ns"},
		metricDef{"common.launch_ns.1x48", "ns"},
		metricDef{"obs.mpiop_ns", "ns"},
		metricDef{"obs.kernelcharge_ns", "ns"},
		metricDef{"obs.manifest_ns", "ns"},
		metricDef{"perfdb.append_ns", "ns"},
	)
}()

// tracedPass runs one pass under the CPU profiler, then the
// per-operation loops, and returns the pass with the per-layer metrics.
// scale multiplies the loops' operation counts.
func tracedPass(p *plan, scale float64) (pass, map[string]metric, error) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return pass{}, nil, err
	}
	ps := p.run()
	pprof.StopCPUProfile()
	byLayer, err := attribute(prof.Bytes())
	if err != nil {
		return pass{}, nil, err
	}
	var total float64
	for _, ns := range byLayer {
		total += ns
	}
	v := map[string]float64{}
	for _, l := range layers {
		if total > 0 {
			v["layer."+l+".cpu_s"] = byLayer[l] / total * ps.cpu
		}
	}
	w := ps.work
	v["harness.cells"] = float64(w.cells)
	v["core.charges"] = float64(w.charges)
	v["core.charged_iters"] = w.chargedIters
	v["omp.regions"] = float64(w.ompRegions)
	v["mpi.p2p_msgs"] = float64(w.p2pMsgs)
	v["mpi.p2p_bytes"] = float64(w.p2pBytes)
	v["mpi.collectives"] = float64(w.collectives)
	v["mpi.collective_bytes"] = float64(w.collBytes)
	v["runtime.gc_cycles"] = float64(ps.gcCycles)
	v["runtime.gc_pause_s"] = float64(ps.gcNs) / 1e9
	v["traced_wall_s"] = ps.wall
	if err := perOpCosts(v, scale, p.tmpRoot); err != nil {
		return pass{}, nil, err
	}
	out := map[string]metric{}
	for _, d := range perLayer {
		out[d.name] = metric{Value: v[d.name], Unit: d.unit}
	}
	return ps, out, nil
}

// perOpCosts times fixed-count loops over each layer's public entry
// points, each next to its floor where one exists. At scale 1 each
// loop takes a few tenths of a second on a 2-core host.
func perOpCosts(v map[string]float64, scale float64, tmpRoot string) error {
	var loopErr error
	// measure runs loop, which performs n operations, and records the
	// wall nanoseconds and, when allocs is named, the heap allocations
	// per operation. After a loop fails it does nothing.
	measure := func(ns, allocs string, n int, loop func(n int) error) {
		if loopErr != nil {
			return
		}
		if n = int(float64(n) * scale); n < 1 {
			n = 1
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		loopErr = loop(n)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		v[ns] = float64(d.Nanoseconds()) / float64(n)
		if allocs != "" {
			v[allocs] = float64(m1.Mallocs-m0.Mallocs) / float64(n)
		}
	}
	m, err := arch.Lookup("a64fx")
	if err != nil {
		return err
	}
	cc, err := harness.ParseCompiler("tuned")
	if err != nil {
		return err
	}

	var clock vtime.Clock
	measure("vtime.advance_ns", "", 50_000_000, func(n int) error {
		for i := 0; i < n; i++ {
			clock.Advance(1e-9, vtime.Compute)
		}
		return nil
	})

	pl, err := affinity.Plan(m, 4, 12, affinity.AllocBlock, affinity.ThreadBind{Stride: 1})
	if err != nil {
		return err
	}
	ex := core.Exec{ThreadCores: pl.ThreadCore[0], HomeDomain: -1, DomainLoad: pl.DomainThreadCount(), Compiler: cc}
	model := core.NewModel(m)
	stream, err := common.Lookup("stream")
	if err != nil {
		return err
	}
	kernel := stream.Kernels(common.SizeSmall)[0]
	measure("core.charge_ns", "core.charge_allocs", 300_000, func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := model.Charge(&clock, kernel, 1e6, ex); err != nil {
				return err
			}
		}
		return nil
	})

	team := func(threads int) (*omp.Team, error) {
		cores := make([]int, threads)
		for i := range cores {
			cores[i] = i
		}
		return omp.NewTeam(m, cores, &vtime.Clock{}, omp.DefaultOverheads())
	}
	t1, err := team(1)
	if err != nil {
		return err
	}
	t48, err := team(48)
	if err != nil {
		return err
	}
	// The per-element loops run whole regions of len(x) elements.
	x := make([]float64, 1<<16)
	measure("omp.iter_ns", "", len(x)<<10, func(n int) error {
		for r := 0; r < n/len(x); r++ {
			t1.ParallelFor(omp.Schedule{}, len(x), func(_, i int) { x[i] = x[i]*0.5 + 1 }, nil)
		}
		return nil
	})
	measure("omp.iter_floor_ns", "", len(x)<<10, func(n int) error {
		for r := 0; r < n/len(x); r++ {
			for i := range x {
				x[i] = x[i]*0.5 + 1
			}
		}
		return nil
	})
	empty := func(int, int) {}
	measure("omp.region_ns.t1", "", 300_000, func(n int) error {
		for i := 0; i < n; i++ {
			t1.ParallelFor(omp.Schedule{}, 1, empty, nil)
		}
		return nil
	})
	measure("omp.region_ns.t48", "omp.region_allocs.t48", 15_000, func(n int) error {
		for i := 0; i < n; i++ {
			t48.ParallelFor(omp.Schedule{}, 48, empty, nil)
		}
		return nil
	})

	world := func(body func(*mpi.Comm) error) error {
		_, err := mpi.Run(mpi.Config{Ranks: 48}, body)
		return err
	}
	measure("mpi.run_ns.r48", "", 10_000, func(n int) error {
		for i := 0; i < n; i++ {
			if err := world(func(*mpi.Comm) error { return nil }); err != nil {
				return err
			}
		}
		return nil
	})
	// One world runs the point-to-point and collective loops; n counts
	// operations over all 48 ranks.
	measure("mpi.sendrecv_ns.r48", "mpi.sendrecv_allocs.r48", 48*9_000, func(n int) error {
		return world(func(c *mpi.Comm) error {
			buf := []float64{1}
			r, size := c.Rank(), c.Size()
			for i := 0; i < n/size; i++ {
				if _, err := c.Sendrecv((r+1)%size, 0, buf, (r+size-1)%size, 0); err != nil {
					return err
				}
			}
			return nil
		})
	})
	measure("mpi.allreduce_ns.r48", "mpi.allreduce_allocs.r48", 48*3_600, func(n int) error {
		return world(func(c *mpi.Comm) error {
			for i := 0; i < n/c.Size(); i++ {
				if _, err := c.AllreduceScalar(mpi.OpSum, 1); err != nil {
					return err
				}
			}
			return nil
		})
	})

	launch := func(procs, threads int) func(int) error {
		cfg := common.RunConfig{Machine: m, Procs: procs, Threads: threads, Compiler: cc, Size: common.SizeTest}
		return func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := common.Launch(cfg, func(*common.Env) error { return nil }); err != nil {
					return err
				}
			}
			return nil
		}
	}
	measure("common.launch_ns.48x1", "", 3_000, launch(48, 1))
	measure("common.launch_ns.1x48", "", 10_000, launch(1, 48))

	rec := obs.NewRecorder()
	rec.SetMeta("stream", "4x12")
	measure("obs.mpiop_ns", "", 1_000_000, func(n int) error {
		for i := 0; i < n; i++ {
			rec.MPIOp(i%48, "sendrecv", (i+1)%48, 64, 1e-6)
		}
		return nil
	})
	est, err := model.KernelTime(kernel, 1e6, ex)
	if err != nil {
		return err
	}
	attr := obs.Attribute(est)
	measure("obs.kernelcharge_ns", "", 1_000_000, func(n int) error {
		for i := 0; i < n; i++ {
			rec.KernelCharge(i%48, kernel.Name, 1e6, est.Flops, attr)
		}
		return nil
	})

	// A test-size ccsqcd 4x12 cell supplies a realistic manifest.
	ccsqcd, err := common.Lookup("ccsqcd")
	if err != nil {
		return err
	}
	cellRec := obs.NewRecorder()
	res, err := ccsqcd.Run(common.RunConfig{Machine: m, Procs: 4, Threads: 12, Compiler: cc, Size: common.SizeTest, Recorder: cellRec})
	if err != nil {
		return err
	}
	measure("obs.manifest_ns", "", 5_000, func(n int) error {
		for i := 0; i < n; i++ {
			if err := common.BuildManifest(res, cellRec).Encode(io.Discard); err != nil {
				return err
			}
		}
		return nil
	})

	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmpRoot, "append-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	traj := &perfdb.Trajectory{Path: filepath.Join(dir, "trajectory.jsonl")}
	entry := perfdb.Record{
		Schema: perfdb.RecordSchema, App: "ccsqcd", Machine: m.Name, Procs: 4, Threads: 12,
		Compiler: cc.String(), Size: common.SizeTest.String(), TimeSeconds: res.Time,
		GFlops: res.GFlops(), Verified: res.Verified,
	}
	measure("perfdb.append_ns", "", 200, func(n int) error {
		for i := 0; i < n; i++ {
			if err := traj.Append(entry); err != nil {
				return fmt.Errorf("perfdb append: %w", err)
			}
		}
		return nil
	})
	return loopErr
}
