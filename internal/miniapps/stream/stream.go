// Package stream implements the STREAM bandwidth probe (copy, scale,
// add, triad). The paper uses sustainable memory bandwidth as the
// backdrop for every memory-bound finding; Fig. 6 of the reproduction
// reports triad bandwidth per machine.
package stream

import (
	"fmt"
	"math"

	"fibersim/internal/core"
	"fibersim/internal/miniapps/common"
	"fibersim/internal/mpi"
	"fibersim/internal/omp"
)

// App is the STREAM miniapp.
type App struct{}

// Name returns the registry key.
func (App) Name() string { return "stream" }

// Description returns the Table 2 entry.
func (App) Description() string {
	return "STREAM copy/scale/add/triad memory bandwidth probe"
}

// elements returns the per-rank array length for a size.
func elements(size common.Size) int {
	switch size {
	case common.SizeTest:
		return 1 << 16 // 64Ki doubles = 512 KiB/array
	case common.SizeSmall:
		// 16 MiB per array, 48 MiB working set: larger than every
		// catalogue LLC, so the probe hits main memory everywhere.
		return 1 << 21
	default:
		return 1 << 23
	}
}

// Repetitions per kernel, as in the reference STREAM.
const reps = 10

// kernels returns the four STREAM kernels; working set is the three
// arrays.
func kernels(n int) []core.Kernel {
	ws := int64(3 * 8 * n)
	ks := []core.Kernel{
		// Stores are counted at 8 B: STREAM builds avoid write-allocate
		// traffic (XFILL on A64FX, non-temporal stores on x86).
		{
			Name: "copy", FlopsPerIter: 0,
			LoadBytesPerIter: 8, StoreBytesPerIter: 8,
			VectorizableFrac: 1, AutoVecFrac: 1,
			Pattern: core.PatternStream, WorkingSetBytes: ws,
		},
		{
			Name: "scale", FlopsPerIter: 1,
			LoadBytesPerIter: 8, StoreBytesPerIter: 8,
			VectorizableFrac: 1, AutoVecFrac: 1,
			Pattern: core.PatternStream, WorkingSetBytes: ws,
		},
		{
			Name: "add", FlopsPerIter: 1,
			LoadBytesPerIter: 16, StoreBytesPerIter: 8,
			VectorizableFrac: 1, AutoVecFrac: 1,
			Pattern: core.PatternStream, WorkingSetBytes: ws,
		},
		{
			Name: "triad", FlopsPerIter: 2, FMAFrac: 1,
			LoadBytesPerIter: 16, StoreBytesPerIter: 8,
			VectorizableFrac: 1, AutoVecFrac: 1,
			Pattern: core.PatternStream, WorkingSetBytes: ws,
		},
	}
	for i := range ks {
		ks[i] = core.MustKernel(ks[i])
	}
	return ks
}

// Kernels implements common.App.
func (App) Kernels(size common.Size) []core.Kernel {
	return kernels(elements(size))
}

// Run executes STREAM under cfg. The figure of merit is triad
// bandwidth in GB/s (node aggregate).
func (a App) Run(cfg common.RunConfig) (common.Result, error) {
	cfg = cfg.Normalized()
	n := elements(cfg.Size)
	ks := kernels(n)
	const scalar = 3.0

	var o outputs
	res, err := common.LaunchApp(a.Name(), cfg, &o, func(env *common.Env) error {
		A := make([]float64, n)
		B := make([]float64, n)
		C := make([]float64, n)
		for i := range A {
			A[i], B[i], C[i] = 1, 2, 0
		}
		sched := omp.Schedule{Kind: omp.Static}

		for r := 0; r < reps; r++ {
			// The chunk bodies reslice the arrays to [lo,hi) so the
			// compiler drops the bounds checks in the element loops.
			// copy: c = a
			env.Team.ParallelRange(sched, n, func(_, lo, hi int) { copy(C[lo:hi], A[lo:hi]) }, nil)
			if err := env.Charge(ks[0], float64(n)); err != nil {
				return err
			}
			// scale: b = s*c
			env.Team.ParallelRange(sched, n, func(_, lo, hi int) {
				b, c := B[lo:hi], C[lo:hi]
				for i := range b {
					b[i] = scalar * c[i]
				}
			}, nil)
			if err := env.Charge(ks[1], float64(n)); err != nil {
				return err
			}
			// add: c = a + b
			env.Team.ParallelRange(sched, n, func(_, lo, hi int) {
				a, b, c := A[lo:hi], B[lo:hi], C[lo:hi]
				for i := range c {
					c[i] = a[i] + b[i]
				}
			}, nil)
			if err := env.Charge(ks[2], float64(n)); err != nil {
				return err
			}
			// triad: a = b + s*c
			env.BeginSpan("triad")
			env.Team.ParallelRange(sched, n, func(_, lo, hi int) {
				a, b, c := A[lo:hi], B[lo:hi], C[lo:hi]
				for i := range a {
					a[i] = b[i] + scalar*c[i]
				}
			}, nil)
			if err := env.Charge(ks[3], float64(n)); err != nil {
				return err
			}
			env.EndSpan("triad")
		}

		// Reference STREAM verification: replay the recurrence serially.
		ea, eb, ec := 1.0, 2.0, 0.0
		for r := 0; r < reps; r++ {
			ec = ea
			eb = scalar * ec
			ec = ea + eb
			ea = eb + scalar*ec
		}
		var localErr float64
		for i := 0; i < n; i += n / 16 {
			localErr = max(localErr, math.Abs(A[i]-ea), math.Abs(B[i]-eb), math.Abs(C[i]-ec))
		}
		worstErr, err := env.Comm.AllreduceScalar(mpiMax, localErr)
		if err != nil {
			return err
		}
		if env.Rank() == 0 {
			o = outputs{worstErr: worstErr}
		}
		return env.Comm.Barrier()
	})
	if err != nil {
		return common.Result{}, fmt.Errorf("stream: %w", err)
	}

	// Triad moves 24 significant bytes per element per rep per rank
	// (the classic STREAM accounting excludes write-allocate).
	triadBytes := float64(24*n) * reps * float64(cfg.Procs)

	// The triad time is the slowest rank's.
	var triadTime float64
	for _, t := range res.Spans["triad"] {
		triadTime = max(triadTime, t)
	}

	out := common.FinishResult(a.Name(), cfg, res)
	out.Flops = float64(3*n*reps) * float64(cfg.Procs) // scale+add+triad flops
	out.Verified = o.worstErr <= 1e-8
	out.Check = o.worstErr
	if triadTime > 0 {
		out.Figure = triadBytes / triadTime / 1e9
		out.FigureUnit = "GB/s (triad)"
	}
	return out, nil
}

// mpiMax aliases the reduction operator to keep call sites short.
const mpiMax = mpi.OpMax

// outputs are what a run's numerics decide: the largest deviation of
// any sampled array element from the serial recurrence.
type outputs struct {
	worstErr float64
}

func init() { common.Register(App{}) }
