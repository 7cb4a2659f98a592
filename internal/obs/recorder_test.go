package obs

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"fibersim/internal/core"
	"fibersim/internal/vtime"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder must report disabled")
	}
	r.SetMeta("x", "y")
	r.KernelCharge(0, "k", 1, 1, Attribution{Compute: 1})
	r.MPIOp(0, "send", 1, 8, 0)
	r.OMPRegion(0, 1e-6, 0)
	r.TraceDrops(0, 3)
	if p := r.Profile(); len(p.Kernels) != 0 || p.OMP.Regions != 0 {
		t.Errorf("nil recorder profile not empty: %+v", p)
	}
	if r.Registry() != nil {
		t.Error("nil recorder must have nil registry")
	}
}

func TestAttribute(t *testing.T) {
	est := core.Estimate{
		Compute:     1.0,
		Memory:      3.0,
		Total:       3.0 + 0.15, // longer + (1-overlap)*shorter at 0.85 overlap
		Bottleneck:  vtime.Memory,
		StallFactor: 1.25,
		CacheLevel:  3,
	}
	a := Attribute(est)
	if rel := relErr(a.Total(), est.Total); rel > 1e-12 {
		t.Errorf("attribution total %g, want %g (rel %g)", a.Total(), est.Total, rel)
	}
	// Compute share splits 1/1.25 base vs stall remainder.
	computeShare := est.Total * est.Compute / (est.Compute + est.Memory)
	if rel := relErr(a.Compute, computeShare/1.25); rel > 1e-12 {
		t.Errorf("base compute = %g", a.Compute)
	}
	if rel := relErr(a.Stall, computeShare-computeShare/1.25); rel > 1e-12 {
		t.Errorf("stall = %g", a.Stall)
	}
	if a.L1 != 0 || a.L2 != 0 {
		t.Error("memory time must land on the serving level only")
	}
	if a.Dominant() != ResMem {
		t.Errorf("dominant = %s, want mem", a.Dominant())
	}
	if a.Category() != est.Bottleneck {
		t.Errorf("category = %s, analyzer says %s", a.Category(), est.Bottleneck)
	}

	// Compute-bound at L1: dominant flips, category matches.
	est2 := core.Estimate{
		Compute: 5, Memory: 1, Total: 5.15,
		Bottleneck: vtime.Compute, StallFactor: 1, CacheLevel: 1,
	}
	a2 := Attribute(est2)
	if a2.Stall != 0 {
		t.Errorf("stall = %g, want 0 at factor 1", a2.Stall)
	}
	if a2.Dominant() != ResCompute || a2.Category() != vtime.Compute {
		t.Errorf("dominant=%s category=%s", a2.Dominant(), a2.Category())
	}
	if a2.L1 == 0 || a2.Mem != 0 {
		t.Errorf("L1 traffic misplaced: %+v", a2)
	}

	if z := Attribute(core.Estimate{}); z.Total() != 0 {
		t.Errorf("zero estimate must attribute nothing, got %+v", z)
	}
}

// TestRecorderConcurrent exercises many ranks recording simultaneously;
// run under -race this is the concurrency guarantee of the tentpole.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	r.SetMeta("stream", "test")
	const ranks, per = 8, 100
	var wg sync.WaitGroup
	for rank := 0; rank < ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.KernelCharge(rank, "triad", 10, 20, Attribution{Compute: 1e-6, Mem: 3e-6})
				r.MPIOp(rank, "send", (rank+1)%ranks, 64, 0)
				r.MPIOp(rank, "recv", (rank+ranks-1)%ranks, 64, 1e-7)
				r.OMPRegion(rank, 2e-7, 1e-8)
			}
		}(rank)
	}
	wg.Wait()

	p := r.Profile()
	if len(p.Kernels) != 1 {
		t.Fatalf("got %d kernels", len(p.Kernels))
	}
	k := p.Kernels[0]
	if k.Calls != ranks*per {
		t.Errorf("calls = %d, want %d", k.Calls, ranks*per)
	}
	if rel := relErr(k.Seconds, float64(ranks*per)*4e-6); rel > 1e-9 {
		t.Errorf("seconds = %g", k.Seconds)
	}
	if k.Dominant != "mem" || k.Category != "memory" {
		t.Errorf("dominant=%s category=%s", k.Dominant, k.Category)
	}
	if got := p.Comm.Ops["send"].Count; got != ranks*per {
		t.Errorf("sends = %d", got)
	}
	if got := p.Comm.Ops["recv"].WaitSeconds; relErr(got, float64(ranks*per)*1e-7) > 1e-9 {
		t.Errorf("recv wait = %g", got)
	}
	// Each rank sends to one peer; recv must not double-count flows.
	if len(p.Comm.Peers) != ranks {
		t.Errorf("got %d peer flows, want %d", len(p.Comm.Peers), ranks)
	}
	for _, pf := range p.Comm.Peers {
		if pf.Count != per || pf.Bytes != per*64 {
			t.Errorf("peer flow %+v", pf)
		}
	}
	if p.OMP.Regions != ranks*per {
		t.Errorf("omp regions = %d", p.OMP.Regions)
	}

	// The registry saw the same totals.
	calls := r.Registry().Counter("fibersim_kernel_calls_total", "",
		Labels{"app": "stream", "run": "test", "kernel": "triad", "rank": "0"})
	if calls.Value() != per {
		t.Errorf("rank-0 metric calls = %g, want %d", calls.Value(), per)
	}
}

// TestRecorderSharedSeriesConcurrent has goroutines share ranks, so
// they race to create the same lazily created series and then update
// them; the totals must not depend on which goroutine created what.
func TestRecorderSharedSeriesConcurrent(t *testing.T) {
	r := NewRecorder()
	r.SetMeta("ffvc", "48x1")
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rank := i % 2
				var a Attribution
				switch (w + i) % 3 {
				case 0:
					a.Compute = 1
				case 1:
					a.L2 = 1
				default:
					a.Mem = 1
				}
				r.KernelCharge(rank, "sor", 1, 1, a)
				r.MPIOp(rank, "send", 1-rank, int64(i%2), float64(w%2))
				r.OMPRegion(rank, float64(i%2), float64(w%2))
			}
		}(w)
	}
	wg.Wait()

	got := map[string]float64{}
	for _, s := range r.Registry().Samples() {
		got[s.Name] += s.Value
	}
	for name, want := range map[string]float64{
		"fibersim_kernel_calls_total":          workers * per,
		"fibersim_kernel_seconds_total":        workers * per,
		"fibersim_mpi_ops_total":               workers * per,
		"fibersim_mpi_bytes_total":             workers * per / 2,
		"fibersim_mpi_wait_seconds_total":      workers / 2 * per,
		"fibersim_omp_barrier_seconds_total":   workers * per / 2,
		"fibersim_omp_imbalance_seconds_total": workers / 2 * per,
	} {
		if got[name] != want {
			t.Errorf("%s sums to %g, want %g", name, got[name], want)
		}
	}
}

// recorderScript drives a Recorder through a fixed sequence on one
// goroutine that touches every series rule: records before any
// SetMeta, zero attribution buckets, MPI ops without bytes or without
// wait, regions without overhead, a SetMeta change mid-run and trace
// drops (one of them zero).
func recorderScript(r *Recorder) {
	for rank := 0; rank < 3; rank++ {
		r.OMPRegion(rank, 1e-7, 0)
	}
	r.SetMeta("ccsqcd", "48x1")
	for rank := 0; rank < 3; rank++ {
		peer := (rank + 1) % 3
		r.KernelCharge(rank, "dslash", 1e4, 1.32e7, Attribution{Compute: 2e-6, L2: 5e-6})
		r.KernelCharge(rank, "clover", 1e4, 5e6, Attribution{Compute: 1e-6, Stall: 2.5e-7, Mem: 4e-6})
		r.KernelCharge(rank, "dslash", 1e4, 1.32e7, Attribution{})
		r.MPIOp(rank, "send", peer, 4096, 0)
		r.MPIOp(peer, "recv", rank, 4096, 3e-6)
		r.MPIOp(rank, "barrier", -1, 0, 1.5e-6)
		r.MPIOp(rank, "allreduce", -1, 8, 0)
		r.OMPRegion(rank, 0, 2e-8)
		r.OMPRegion(rank, 3e-7, 0)
	}
	r.TraceDrops(2, 17)
	r.TraceDrops(1, 0)
	r.SetMeta("ccsqcd", "4x12")
	for rank := 0; rank < 3; rank++ {
		r.KernelCharge(rank, "dslash", 2e4, 2.64e7, Attribution{Compute: 4e-6, L1: 1e-6})
		r.KernelCharge(rank, "dslash", 2e4, 2.64e7, Attribution{Compute: 4e-6, L1: 1e-6})
		r.MPIOp(rank, "send", (rank+2)%3, 0, 0)
		r.MPIOp(rank, "send", (rank+2)%3, 512, 0)
		r.OMPRegion(rank, 0, 0)
	}
}

// TestRecorderExpositionGolden pins the series a Recorder creates, and
// their values, byte for byte.
func TestRecorderExpositionGolden(t *testing.T) {
	r := NewRecorder()
	recorderScript(r)
	checkExpositionGolden(t, r.Registry(), "recorder.prom")
}

func TestProfileOrderingAndLookup(t *testing.T) {
	r := NewRecorder()
	r.KernelCharge(0, "minor", 1, 1, Attribution{Compute: 1e-6})
	r.KernelCharge(0, "major", 1, 1, Attribution{Mem: 5e-6})
	r.TraceDrops(0, 7)
	p := r.Profile()
	if p.Kernels[0].Kernel != "major" {
		t.Errorf("kernels not time-ordered: %v", p.Kernels)
	}
	if _, ok := p.Kernel("minor"); !ok {
		t.Error("Kernel lookup failed")
	}
	if p.TraceDropped != 7 {
		t.Errorf("trace dropped = %d", p.TraceDropped)
	}
	if math.Abs(p.KernelSeconds()-6e-6) > 1e-18 {
		t.Errorf("kernel seconds = %g", p.KernelSeconds())
	}
}

// TestRecorderHotPathZeroAlloc pins that a call whose series are
// already resolved allocates nothing.
func TestRecorderHotPathZeroAlloc(t *testing.T) {
	r := NewRecorder()
	r.SetMeta("ccsqcd", "48x1")
	attr := Attribution{Compute: 1e-6, Stall: 1e-7, L1: 1e-7, L2: 1e-7, Mem: 2e-6}
	for _, c := range []struct {
		name string
		call func()
	}{
		{"KernelCharge", func() { r.KernelCharge(3, "dslash", 1e4, 1.32e7, attr) }},
		{"MPIOp", func() { r.MPIOp(3, "send", 4, 4096, 1e-6) }},
		{"OMPRegion", func() { r.OMPRegion(3, 2e-7, 1e-8) }},
	} {
		c.call() // resolves the series
		if n := testing.AllocsPerRun(100, c.call); n != 0 {
			t.Errorf("%s allocates %.1f objects per call once warm, want 0", c.name, n)
		}
	}
}

// BenchmarkRecorder measures the Recorder hot path with every series
// already resolved, cycling over 48 ranks as a 48x1 run does.
// mpi-op-parallel issues MPIOp from GOMAXPROCS goroutines, one rank
// each, so it shows contention on the recorder lock.
func BenchmarkRecorder(b *testing.B) {
	const ranks = 48
	attr := Attribution{Compute: 1e-6, Stall: 1e-7, Mem: 2e-6}
	bench := func(name string, call func(r *Recorder, rank int)) {
		b.Run(name, func(b *testing.B) {
			r := NewRecorder()
			r.SetMeta("ccsqcd", "48x1")
			for rank := 0; rank < ranks; rank++ {
				call(r, rank)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				call(r, i%ranks)
			}
		})
	}
	bench("kernel-charge", func(r *Recorder, rank int) { r.KernelCharge(rank, "dslash", 1e4, 1.32e7, attr) })
	bench("mpi-op", func(r *Recorder, rank int) { r.MPIOp(rank, "send", (rank+1)%ranks, 4096, 1e-6) })
	bench("omp-region", func(r *Recorder, rank int) { r.OMPRegion(rank, 2e-7, 1e-8) })
	b.Run("mpi-op-parallel", func(b *testing.B) {
		r := NewRecorder()
		r.SetMeta("ccsqcd", "48x1")
		var next atomic.Int64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			rank := int(next.Add(1)-1) % ranks
			for pb.Next() {
				r.MPIOp(rank, "send", (rank+1)%ranks, 4096, 1e-6)
			}
		})
	})
}

// TestProfileIndependentOfArrivalOrder feeds one 3-rank sequence in two
// interleavings that keep each rank's own order, as two runs of one
// config may on the host. The values are chosen so that summing in
// arrival order rounds differently: 1 + 1e-16 + 1e-16 is 1 in one
// order and the next float above 1 in the other.
func TestProfileIndependentOfArrivalOrder(t *testing.T) {
	small := 1e-16
	type call func(r *Recorder)
	perRank := func(rank int, v float64) []call {
		return []call{
			func(r *Recorder) { r.KernelCharge(rank, "dslash", 1, v, Attribution{Compute: v, Mem: v}) },
			func(r *Recorder) { r.MPIOp(rank, "allreduce", -1, 8, v) },
			func(r *Recorder) { r.MPIOp(rank, "recv", (rank+1)%3, 64, v) },
			func(r *Recorder) { r.OMPRegion(rank, v, v) },
		}
	}
	ranks := [][]call{perRank(0, 1), perRank(1, small), perRank(2, small)}
	play := func(rankOrder []int) Profile {
		r := NewRecorder()
		for i := range ranks[0] {
			for _, rank := range rankOrder {
				ranks[rank][i](r)
			}
		}
		return r.Profile()
	}
	a, b := play([]int{0, 1, 2}), play([]int{2, 1, 0})
	if !reflect.DeepEqual(a, b) {
		t.Errorf("profile depends on rank arrival order:\n%+v\n%+v", a, b)
	}
}
