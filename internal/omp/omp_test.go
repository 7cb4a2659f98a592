package omp

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"fibersim/internal/arch"
	"fibersim/internal/obs"
	"fibersim/internal/vtime"
)

func team(t testing.TB, cores []int) *Team {
	t.Helper()
	tm, err := NewTeam(arch.MustLookup("a64fx"), cores, &vtime.Clock{}, DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func coresRange(n, stride int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i * stride
	}
	return out
}

func TestNewTeamValidation(t *testing.T) {
	m := arch.MustLookup("a64fx")
	clk := &vtime.Clock{}
	if _, err := NewTeam(m, nil, clk, DefaultOverheads()); err == nil {
		t.Error("empty team must fail")
	}
	if _, err := NewTeam(m, []int{99}, clk, DefaultOverheads()); err == nil {
		t.Error("invalid core must fail")
	}
	if _, err := NewTeam(m, []int{3, 3}, clk, DefaultOverheads()); err == nil {
		t.Error("duplicate core must fail")
	}
	if _, err := NewTeam(m, []int{0}, nil, DefaultOverheads()); err == nil {
		t.Error("nil clock must fail")
	}
}

func TestTeamAccessors(t *testing.T) {
	tm := team(t, []int{0, 12, 24})
	if tm.Threads() != 3 {
		t.Errorf("Threads = %d", tm.Threads())
	}
	if tm.DomainsSpanned() != 3 {
		t.Errorf("DomainsSpanned = %d, want 3", tm.DomainsSpanned())
	}
	c := tm.Cores()
	c[0] = 99 // must be a copy
	if tm.Cores()[0] != 0 {
		t.Error("Cores() must return a copy")
	}
}

// coverageCheck runs a loop and verifies every index ran exactly once.
// It returns how many iterations each thread ran, as the body's thread
// argument tells.
func coverageCheck(t *testing.T, tm *Team, s Schedule, n int) []int64 {
	t.Helper()
	counts := make([]int64, n)
	iters := make([]int64, tm.Threads())
	tm.ParallelFor(s, n, func(th, i int) {
		atomic.AddInt64(&counts[i], 1)
		atomic.AddInt64(&iters[th], 1)
	}, nil)
	for i, c := range counts {
		if c != 1 {
			t.Errorf("%v n=%d: index %d executed %d times", s, n, i, c)
		}
	}
	var total int64
	for _, it := range iters {
		total += it
	}
	if total != int64(n) {
		t.Errorf("%v: thread iteration counts sum to %d, want %d", s, total, n)
	}
	return iters
}

// observed returns a team on a fresh clock that reports its regions
// to a fresh recorder.
func observed(t *testing.T, cores []int) (*Team, *obs.Recorder) {
	t.Helper()
	tm := team(t, cores)
	rec := obs.NewRecorder()
	tm.Observe(rec, 0)
	return tm, rec
}

func TestSchedulesCoverage(t *testing.T) {
	tm := team(t, coresRange(8, 1))
	scheds := []Schedule{
		{Kind: Static}, {Kind: Static, Chunk: 3},
		{Kind: Dynamic}, {Kind: Dynamic, Chunk: 5},
		{Kind: Guided}, {Kind: Guided, Chunk: 2},
	}
	for _, s := range scheds {
		for _, n := range []int{0, 1, 7, 8, 64, 129} {
			coverageCheck(t, tm, s, n)
		}
	}
}

func TestScheduleCoverageProperty(t *testing.T) {
	tm := team(t, coresRange(6, 2))
	f := func(kind uint8, chunk uint8, n uint16) bool {
		s := Schedule{Kind: ScheduleKind(kind % 3), Chunk: int(chunk % 9)}
		size := int(n % 300)
		counts := make([]int64, size)
		tm.ParallelFor(s, size, func(_, i int) {
			atomic.AddInt64(&counts[i], 1)
		}, nil)
		for _, c := range counts {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStaticBalancesIterations(t *testing.T) {
	tm := team(t, coresRange(4, 1))
	iters := coverageCheck(t, tm, Schedule{Kind: Static}, 10)
	// 10 over 4 threads: 3,3,2,2.
	if want := []int64{3, 3, 2, 2}; !reflect.DeepEqual(iters, want) {
		t.Errorf("thread iters = %v, want %v", iters, want)
	}
}

func TestVirtualTimeChargedMaxPlusOverhead(t *testing.T) {
	tm := team(t, coresRange(4, 1))
	// Uniform 1ms per iteration, 8 iterations on 4 threads: 2ms busy.
	tm.ParallelFor(Schedule{Kind: Static}, 8, nil, func(int) float64 { return 1e-3 })
	clk, over := tm.Clock(), tm.regionOverhead()
	if math.Abs(clk.Spent(vtime.Compute)-2e-3) > 1e-12 {
		t.Errorf("compute = %g, want the 2ms critical path", clk.Spent(vtime.Compute))
	}
	if over <= 0 || clk.Spent(vtime.Runtime) != over {
		t.Errorf("runtime = %g, want the overhead %g > 0", clk.Spent(vtime.Runtime), over)
	}
	if math.Abs(clk.Now()-(2e-3+over)) > 1e-12 {
		t.Errorf("clock advanced %g, want 2ms + overhead %g", clk.Now(), over)
	}
}

func TestDynamicBeatsStaticOnSkewedWork(t *testing.T) {
	// Iteration i costs i; static contiguous blocks put all heavy
	// iterations on the last thread, dynamic spreads them.
	costs := func(i int) float64 { return float64(i) * 1e-6 }
	const n = 256
	run := func(s Schedule) (elapsed, imbalance float64) {
		tm, rec := observed(t, coresRange(8, 1))
		tm.ParallelFor(s, n, nil, costs)
		return tm.Clock().Now(), rec.Profile().OMP.ImbalanceSeconds
	}
	stat, statImb := run(Schedule{Kind: Static})
	dyn, dynImb := run(Schedule{Kind: Dynamic, Chunk: 4})
	if dyn >= stat {
		t.Errorf("dynamic (%g) should beat static (%g) on skewed work", dyn, stat)
	}
	if statImb <= dynImb {
		t.Errorf("static imbalance (%g) should exceed dynamic (%g)", statImb, dynImb)
	}
}

func TestDynamicGrabCostCharged(t *testing.T) {
	tm, rec := observed(t, coresRange(2, 1))
	tm.ParallelFor(Schedule{Kind: Dynamic, Chunk: 1}, 100, nil, nil)
	// The clock's compute is the longest thread's busy time, and the
	// recorded imbalance is that minus the mean.
	longest := tm.Clock().Spent(vtime.Compute)
	busy := 2 * (longest - rec.Profile().OMP.ImbalanceSeconds)
	want := 100 * DefaultOverheads().DynamicGrab
	if math.Abs(busy-want) > 1e-12 {
		t.Errorf("total grab cost = %g, want %g", busy, want)
	}
}

func TestCrossDomainOverheadLarger(t *testing.T) {
	// Same team size; one binding inside a CMG, one spanning 4 CMGs.
	inside := team(t, []int{0, 1, 2, 3})
	across := team(t, []int{0, 12, 24, 36})
	inside.ParallelFor(Schedule{Kind: Static}, 4, nil, nil)
	across.ParallelFor(Schedule{Kind: Static}, 4, nil, nil)
	// With no cost and no fault, a region's runtime is its overhead.
	in, out := inside.Clock().Spent(vtime.Runtime), across.Clock().Spent(vtime.Runtime)
	if out <= in {
		t.Errorf("cross-domain overhead (%g) should exceed within-domain (%g)", out, in)
	}
	if ratio := out / in; math.Abs(ratio-DefaultOverheads().CrossDomainFactor) > 1e-9 {
		t.Errorf("overhead ratio = %g, want %g", ratio, DefaultOverheads().CrossDomainFactor)
	}
}

func TestSingleThreadNoOverhead(t *testing.T) {
	tm := team(t, []int{5})
	tm.ParallelFor(Schedule{Kind: Static}, 10, nil, func(int) float64 { return 1e-3 })
	if rt := tm.Clock().Spent(vtime.Runtime); rt != 0 {
		t.Errorf("single-thread overhead = %g, want 0", rt)
	}
	if now := tm.Clock().Now(); math.Abs(now-10e-3) > 1e-12 {
		t.Errorf("elapsed = %g, want 10ms", now)
	}
}

// visits records, per index, how often a body ran it and as which
// thread, plus a per-index contribution for an index-order reduction.
type visits struct {
	count, thread []int64
	partial       []float64
}

func newVisits(n int) *visits {
	return &visits{make([]int64, n), make([]int64, n), make([]float64, n)}
}

func (v *visits) visit(th, i int) {
	atomic.AddInt64(&v.count[i], 1)
	atomic.StoreInt64(&v.thread[i], int64(th))
	v.partial[i] = 1 / float64(i+1)
}

// sum folds the contributions in index order.
func (v *visits) sum() float64 {
	var s float64
	for _, p := range v.partial {
		s += p
	}
	return s
}

func TestParallelRangeMatchesParallelFor(t *testing.T) {
	scheds := []Schedule{{Kind: Static}, {Kind: Static, Chunk: 5}, {Kind: Dynamic, Chunk: 3}, {Kind: Guided}}
	cost := func(i int) float64 { return float64(i%7+1) * 1e-6 }
	serial := newVisits(1000)
	for i := 0; i < 1000; i++ {
		serial.visit(0, i)
	}
	for _, k := range []int{1, 3, 48} {
		for _, s := range scheds {
			for _, n := range []int{0, 1, 47, 1000} {
				byElem, byRange := newVisits(n), newVisits(n)
				forTeam, forRec := observed(t, coresRange(k, 1))
				rangeTeam, rangeRec := observed(t, coresRange(k, 1))
				forTeam.ParallelFor(s, n, byElem.visit, cost)
				rangeTeam.ParallelRange(s, n, func(th, lo, hi int) {
					for i := lo; i < hi; i++ {
						byRange.visit(th, i)
					}
				}, cost)
				if a, b := forTeam.Clock(), rangeTeam.Clock(); a.Now() != b.Now() || a.Breakdown() != b.Breakdown() {
					t.Errorf("k=%d %v n=%d: clocks differ: for %g %+v, range %g %+v", k, s, n, a.Now(), a.Breakdown(), b.Now(), b.Breakdown())
				}
				if a, b := forRec.Profile().OMP, rangeRec.Profile().OMP; a != b {
					t.Errorf("k=%d %v n=%d: recorded regions differ:\nfor   %+v\nrange %+v", k, s, n, a, b)
				}
				for i := 0; i < n; i++ {
					if byElem.count[i] != 1 || byRange.count[i] != 1 {
						t.Fatalf("k=%d %v n=%d: index %d ran %d/%d times, want 1", k, s, n, i, byElem.count[i], byRange.count[i])
					}
					if byElem.thread[i] != byRange.thread[i] {
						t.Fatalf("k=%d %v n=%d: index %d ran on thread %d and %d", k, s, n, i, byElem.thread[i], byRange.thread[i])
					}
				}
				// A per-index reduction folded in index order does not
				// depend on the schedule or the host interleaving.
				if n == 1000 && (byElem.sum() != serial.sum() || byRange.sum() != serial.sum()) {
					t.Errorf("k=%d %v: sums %.17g/%.17g, want %.17g", k, s, byElem.sum(), byRange.sum(), serial.sum())
				}
			}
		}
	}
}

func TestRangeBodyGetsPlannedChunks(t *testing.T) {
	// Static,4 over 3 threads deals chunks round-robin; each thread must
	// see exactly its chunks, in order, one call per chunk.
	tm := team(t, coresRange(3, 1))
	got := make([][]chunk, 3)
	tm.ParallelRange(Schedule{Kind: Static, Chunk: 4}, 26, func(th, lo, hi int) {
		got[th] = append(got[th], chunk{lo, hi})
	}, nil)
	want := [][]chunk{
		{{0, 4}, {12, 16}, {24, 26}},
		{{4, 8}, {16, 20}},
		{{8, 12}, {20, 24}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("chunks = %v, want %v", got, want)
	}
}

func TestRegionAllocs(t *testing.T) {
	empty := func(int, int) {}
	t1 := team(t, []int{0})
	// A 1-thread region runs inline on the caller: no goroutine is
	// spawned, and its plan is built into the team's arrays, so it
	// allocates nothing.
	before := runtime.NumGoroutine()
	t1.ParallelFor(Schedule{}, 1, func(int, int) {
		if g := runtime.NumGoroutine(); g > before {
			t.Errorf("1-thread region body sees %d goroutines, caller had %d", g, before)
		}
	}, nil)
	for _, s := range []Schedule{{}, {Kind: Static, Chunk: 4}, {Kind: Dynamic, Chunk: 4}, {Kind: Guided}} {
		if a := testing.AllocsPerRun(100, func() { t1.ParallelFor(s, 64, empty, nil) }); a != 0 {
			t.Errorf("1-thread %v region allocates %v, want 0", s, a)
		}
	}
	// A wider region allocates only the go statement of each helper
	// goroutine.
	t48 := team(t, coresRange(48, 1))
	if a, want := testing.AllocsPerRun(100, func() { t48.ParallelFor(Schedule{}, 48, empty, nil) }), float64(t48.workers-1); a > want {
		t.Errorf("48-thread region on %d workers allocates %v, want <= %v", t48.workers, a, want)
	}
	// A replayed region has neither body nor cost: a static one builds
	// no plan, a dynamic one only simulates its grabs, and neither
	// allocates.
	for _, tm := range []*Team{t1, t48} {
		for _, s := range []Schedule{{}, {Kind: Dynamic, Chunk: 4}} {
			if a := testing.AllocsPerRun(100, func() { tm.ParallelRange(s, 480, nil, nil) }); a != 0 {
				t.Errorf("%d-thread replayed %v region allocates %v, want 0", tm.Threads(), s, a)
			}
		}
	}
}

func TestScheduleString(t *testing.T) {
	cases := map[string]Schedule{
		"static":   {Kind: Static},
		"static,4": {Kind: Static, Chunk: 4},
		"dynamic":  {Kind: Dynamic},
		"guided,2": {Kind: Guided, Chunk: 2},
	}
	for want, s := range cases {
		if got := s.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

func TestZeroIterations(t *testing.T) {
	tm := team(t, coresRange(4, 1))
	tm.ParallelFor(Schedule{Kind: Guided}, 0, func(_, _ int) {
		t.Error("body must not run for n=0")
	}, nil)
	clk := tm.Clock()
	if clk.Spent(vtime.Compute) != 0 || clk.Now() != tm.regionOverhead() {
		t.Errorf("empty loop elapsed = %g (compute %g), want overhead only %g",
			clk.Now(), clk.Spent(vtime.Compute), tm.regionOverhead())
	}
}

func TestGuidedChunksDecrease(t *testing.T) {
	var mu sync.Mutex
	var got []chunk
	team(t, coresRange(4, 1)).ParallelRange(Schedule{Kind: Guided}, 1000, func(_, lo, hi int) {
		mu.Lock()
		got = append(got, chunk{lo, hi})
		mu.Unlock()
	}, nil)
	// Chunks are grabbed in iteration order.
	sort.Slice(got, func(i, j int) bool { return got[i].lo < got[j].lo })
	if len(got) < 3 {
		t.Fatalf("guided produced %d chunks", len(got))
	}
	first := got[0].hi - got[0].lo
	last := got[len(got)-1].hi - got[len(got)-1].lo
	if first <= last {
		t.Errorf("guided chunks should shrink: first=%d last=%d", first, last)
	}
	// Chunks tile [0,n) exactly.
	pos := 0
	for _, c := range got {
		if c.lo != pos || c.hi <= c.lo {
			t.Fatalf("guided chunks do not tile: %v at pos %d", c, pos)
		}
		pos = c.hi
	}
	if pos != 1000 {
		t.Errorf("guided chunks end at %d, want 1000", pos)
	}
}

func TestMoreVirtualThreadsThanWorkers(t *testing.T) {
	// 48 virtual threads must execute correctly even when GOMAXPROCS is
	// smaller; virtual timing still reflects 48-way parallelism.
	tm := team(t, coresRange(48, 1))
	tm.ParallelFor(Schedule{Kind: Static}, 480, nil, func(int) float64 { return 1e-3 })
	if busy := tm.Clock().Spent(vtime.Compute); math.Abs(busy-10e-3) > 1e-9 {
		t.Errorf("48-thread critical path = %g, want 10ms busy", busy)
	}
}

func TestChunksForUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown schedule kind must panic")
		}
	}()
	team(t, coresRange(2, 1)).ParallelRange(Schedule{Kind: ScheduleKind(9)}, 10, nil, nil)
}

func TestObserveRecordsRegions(t *testing.T) {
	tm := team(t, coresRange(4, 1))
	rec := obs.NewRecorder()
	tm.Observe(rec, 3)

	// Imbalanced static loop: iteration 0 is 10x the rest.
	tm.ParallelFor(Schedule{Kind: Static}, 8, nil, func(i int) float64 {
		if i == 0 {
			return 10e-6
		}
		return 1e-6
	})
	tm.ParallelFor(Schedule{Kind: Static}, 4, nil, nil)

	p := rec.Profile()
	if p.OMP.Regions != 2 {
		t.Errorf("regions = %d, want 2", p.OMP.Regions)
	}
	if p.OMP.BarrierSeconds <= 0 {
		t.Errorf("barrier seconds = %g, want > 0", p.OMP.BarrierSeconds)
	}
	if p.OMP.ImbalanceSeconds <= 0 {
		t.Errorf("imbalance seconds = %g, want > 0", p.OMP.ImbalanceSeconds)
	}
}

func TestObserveNilRecorderIsSafe(t *testing.T) {
	tm := team(t, coresRange(2, 1))
	tm.Observe(nil, 0)
	tm.ParallelFor(Schedule{Kind: Static}, 4, nil, nil)
}

func TestInjectPerturbsRegions(t *testing.T) {
	tm := team(t, coresRange(4, 1))
	costs := func(i int) float64 { return 1e-6 }
	over := tm.regionOverhead()
	// region runs one 64-iteration region and returns what it added to
	// the clock's compute and runtime.
	region := func() (compute, rt float64) {
		before := tm.Clock().Breakdown()
		tm.ParallelFor(Schedule{Kind: Static}, 64, nil, costs)
		after := tm.Clock().Breakdown()
		return after.Get(vtime.Compute) - before.Get(vtime.Compute), after.Get(vtime.Runtime) - before.Get(vtime.Runtime)
	}

	cleanCompute, cleanRuntime := region()
	if math.Abs(cleanCompute-16e-6) > 1e-15 || math.Abs(cleanRuntime-over) > 1e-15 {
		t.Fatalf("clean region added compute %g and runtime %g, want 16us and the overhead %g",
			cleanCompute, cleanRuntime, over)
	}

	// Double the critical path: the excess must be charged to the clock
	// as runtime, not compute.
	tm.Inject(func(start, d float64) float64 { return 2 * d })
	dCompute, dRuntime := region()
	if math.Abs(dCompute-cleanCompute) > 1e-15 {
		t.Fatalf("compute advanced %g, want clean critical path %g", dCompute, cleanCompute)
	}
	if math.Abs(dRuntime-(cleanCompute+over)) > 1e-15 {
		t.Fatalf("runtime advanced %g, want fault %g + overhead %g", dRuntime, cleanCompute, over)
	}

	tm.Inject(nil)
	if _, again := region(); math.Abs(again-over) > 1e-15 {
		t.Fatalf("after Inject(nil), runtime advanced %g, want the overhead %g", again, over)
	}
}

// opLog records what a Team reports, in order.
type opLog []string

func (l *opLog) Region(s Schedule, n int) { *l = append(*l, fmt.Sprintf("region %s n=%d", s, n)) }
func (l *opLog) Unreplayable(op string)   { *l = append(*l, op) }

// TestLogRecordsRegionsAndReportsTheRest pins what a team logs: a
// region per ParallelFor or ParallelRange without a CostFn, and a
// region with one, whose cost a region entry cannot carry, as
// unreplayable.
// Replaying the regions with nil bodies must land on the same clock.
func TestLogRecordsRegionsAndReportsTheRest(t *testing.T) {
	tm := team(t, coresRange(4, 1))
	var l opLog
	tm.LogTo(&l)
	dyn := Schedule{Kind: Dynamic, Chunk: 3}
	tm.ParallelFor(Schedule{}, 10, func(int, int) {}, nil)
	tm.ParallelRange(dyn, 7, func(int, int, int) {}, nil)
	want := opLog{"region static n=10", "region dynamic,3 n=7"}
	if !reflect.DeepEqual(l, want) {
		t.Fatalf("logged %v, want %v", l, want)
	}
	replay := team(t, coresRange(4, 1))
	replay.ParallelRange(Schedule{}, 10, nil, nil)
	replay.ParallelRange(dyn, 7, nil, nil)
	if got, want := replay.Clock().Now(), tm.Clock().Now(); got != want {
		t.Errorf("replayed clock %g, logged run %g", got, want)
	}

	l = nil
	tm.ParallelFor(Schedule{}, 4, nil, func(int) float64 { return 1e-9 })
	tm.ParallelFor(Schedule{}, 4, nil, nil)
	want = opLog{"omp.ParallelRange with a CostFn", "region static n=4"}
	if !reflect.DeepEqual(l, want) {
		t.Errorf("logged %v, want %v", l, want)
	}
}
