// Package omp is an OpenMP-like threading runtime for simulated ranks.
//
// A Team is created from a thread→core binding (computed by
// internal/affinity) and the owning rank's virtual clock. Parallel
// loops really execute concurrently — bodies must be data-race-free,
// exactly as with OpenMP — while virtual time advances analytically:
// each thread accumulates the modelled cost of the iterations it
// executed, and the region ends at max(thread clocks) plus a fork/join
// overhead that grows with team size and with the number of NUMA
// domains the team spans. That overhead is the mechanism behind the
// paper's thread-stride findings.
//
// Execution contract: a region runs on at most min(GOMAXPROCS, threads)
// goroutines, the calling rank goroutine included, and a 1-thread team
// or GOMAXPROCS=1 runs it inline on the caller. Each virtual thread's
// chunks run in order on one goroutine, but one goroutine may run
// several virtual threads one after another, so a body may not
// synchronize with another virtual thread.
package omp

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"fibersim/internal/arch"
	"fibersim/internal/obs"
	"fibersim/internal/vtime"
)

// Schedule selects how loop iterations are dealt to threads.
type Schedule struct {
	// Kind is the scheduling policy.
	Kind ScheduleKind
	// Chunk is the chunk size; 0 picks the policy default (n/threads
	// for static, 1 for dynamic and guided minimum).
	Chunk int
}

// ScheduleKind enumerates the OpenMP loop schedules.
type ScheduleKind int

const (
	// Static deals contiguous blocks (or round-robin chunks when Chunk
	// is set), decided before the loop runs.
	Static ScheduleKind = iota
	// Dynamic lets threads grab the next chunk on demand.
	Dynamic
	// Guided deals exponentially shrinking chunks on demand.
	Guided
)

// String returns the OpenMP spelling of the schedule.
func (s Schedule) String() string {
	k := ""
	switch s.Kind {
	case Static:
		k = "static"
	case Dynamic:
		k = "dynamic"
	case Guided:
		k = "guided"
	default:
		k = fmt.Sprintf("schedule(%d)", int(s.Kind))
	}
	if s.Chunk > 0 {
		return fmt.Sprintf("%s,%d", k, s.Chunk)
	}
	return k
}

// Overheads holds the runtime cost constants of the threading runtime.
type Overheads struct {
	// Fork is the cost of waking the team at region entry, per log2
	// level, in seconds.
	Fork float64
	// Join is the barrier cost at region exit, per log2 level.
	Join float64
	// CrossDomainFactor multiplies Fork/Join when the team spans more
	// than one NUMA domain (cache-line ping-pong across the ring bus).
	CrossDomainFactor float64
	// DynamicGrab is the cost a thread pays per chunk under dynamic or
	// guided scheduling (the shared-counter atomic).
	DynamicGrab float64
}

// DefaultOverheads returns the constants used for the catalogue
// machines (microbenchmark-scale numbers: sub-microsecond barriers
// within a CMG, a few microseconds across a node).
func DefaultOverheads() Overheads {
	return Overheads{
		Fork:              0.10e-6,
		Join:              0.15e-6,
		CrossDomainFactor: 3.0,
		DynamicGrab:       0.05e-6,
	}
}

// Team is one rank's thread team.
type Team struct {
	machine    *arch.Machine
	cores      []int // thread t runs on cores[t]
	clock      *vtime.Clock
	over       Overheads
	domains    int // NUMA domains spanned by the binding
	maxDomains int // NUMA domains of the machine
	workers    int // real goroutines used for functional execution

	rec     *obs.Recorder // nil when profiling is off
	recRank int           // owning rank, labels the recorded spans

	log Log // nil when the rank program is not being logged

	// perturb, when non-nil, maps a region's critical-path time to its
	// fault-perturbed value (stragglers, OS noise); set via Inject.
	perturb func(start, d float64) float64
}

// NewTeam creates a team whose thread t is bound to cores[t] of m,
// advancing clock. The binding normally comes from
// affinity.Placement.ThreadCore[rank].
func NewTeam(m *arch.Machine, cores []int, clock *vtime.Clock, over Overheads) (*Team, error) {
	if len(cores) == 0 {
		return nil, fmt.Errorf("omp: team needs at least one thread")
	}
	seen := map[int]bool{}
	domains := map[int]bool{}
	for t, c := range cores {
		if c < 0 || c >= m.TotalCores() {
			return nil, fmt.Errorf("omp: thread %d bound to invalid core %d", t, c)
		}
		if seen[c] {
			return nil, fmt.Errorf("omp: core %d bound twice", c)
		}
		seen[c] = true
		domains[m.DomainOf(c)] = true
	}
	if clock == nil {
		return nil, fmt.Errorf("omp: team needs a clock")
	}
	return &Team{
		machine: m, cores: append([]int(nil), cores...), clock: clock,
		over: over, domains: len(domains), maxDomains: len(m.Domains),
		workers: min(len(cores), runtime.GOMAXPROCS(0)),
	}, nil
}

// Threads returns the team size.
func (t *Team) Threads() int { return len(t.cores) }

// Cores returns a copy of the thread→core binding.
func (t *Team) Cores() []int { return append([]int(nil), t.cores...) }

// DomainsSpanned returns how many NUMA domains the team's cores cover.
func (t *Team) DomainsSpanned() int { return t.domains }

// Clock returns the owning rank's clock.
func (t *Team) Clock() *vtime.Clock { return t.clock }

// Observe attaches a profiling recorder: every parallel region reports
// its fork/join overhead and load imbalance as the given rank. A nil
// recorder turns observation off.
func (t *Team) Observe(r *obs.Recorder, rank int) {
	t.rec = r
	t.recRank = rank
}

// Log receives a team's model-visible operations in program order, so
// a launcher can record a rank program and later repeat its timing
// with ParallelRange(s, n, nil, nil). A region with a CostFn, whose
// cost that call cannot repeat, reports itself as unreplayable
// instead.
type Log interface {
	// Region records one ParallelFor or ParallelRange without a CostFn.
	Region(s Schedule, n int)
	// Unreplayable names an operation whose cost a replay cannot
	// reproduce.
	Unreplayable(op string)
}

// LogTo attaches an operation log, the way Observe attaches a
// recorder; nil turns logging off.
func (t *Team) LogTo(l Log) { t.log = l }

// Inject attaches a fault-perturbation hook: f maps a region's
// critical-path time (starting at virtual time start) to its perturbed
// value, and the excess is charged to the rank clock as runtime
// interference (Stats.Fault). The launcher binds this to the fault
// injector's per-rank Perturb; nil turns injection off.
func (t *Team) Inject(f func(start, d float64) float64) {
	t.perturb = f
}

// regionOverhead returns the fork+join cost of one parallel region.
func (t *Team) regionOverhead() float64 {
	n := t.Threads()
	if n <= 1 {
		return 0
	}
	levels := math.Ceil(math.Log2(float64(n)))
	return (t.over.Fork + t.over.Join) * levels * t.domainFactor()
}

// domainFactor grades the cross-domain synchronization penalty by how
// many NUMA domains the team spans: within one domain it is 1, across
// all domains it is CrossDomainFactor.
func (t *Team) domainFactor() float64 {
	if t.domains <= 1 || t.maxDomains <= 1 {
		return 1
	}
	return 1 + (t.over.CrossDomainFactor-1)*float64(t.domains-1)/float64(t.maxDomains-1)
}

// Stats reports what one parallel region did.
type Stats struct {
	// ThreadTime[t] is the modelled busy time of thread t (s).
	ThreadTime []float64
	// ThreadIters[t] is how many iterations thread t executed.
	ThreadIters []int64
	// Overhead is the fork/join cost charged for the region.
	Overhead float64
	// Elapsed is the region's virtual duration: max thread time +
	// overhead + any chunk-grab costs folded into thread times, plus
	// fault-injected time.
	Elapsed float64
	// Fault is the extra time injected by the fault schedule (s).
	Fault float64
}

// Imbalance returns max/mean-1 over thread busy times.
func (s *Stats) Imbalance() float64 {
	ser := vtime.NewSeries("threads")
	for _, v := range s.ThreadTime {
		ser.Add(v)
	}
	return ser.Imbalance()
}

// Body is a per-element loop body: thread is the executing virtual
// thread id, i the iteration index.
type Body func(thread, i int)

// RangeBody is a chunk-granular loop body: it runs iterations [lo,hi)
// as virtual thread thread. Loops whose per-element work is a few
// instructions use it, so the call costs once per chunk, not per
// element.
type RangeBody func(thread, lo, hi int)

// CostFn models the virtual cost, in seconds, of iteration i. A nil
// CostFn charges nothing per iteration (callers then charge a
// region-level cost through internal/core).
type CostFn func(i int) float64

// chunk is a half-open iteration range dealt to a thread.
type chunk struct{ lo, hi int }

// plan is a region's chunk assignment: thread th runs
// chunks[off[th]:off[th+1]], in order.
type plan struct {
	chunks []chunk
	off    []int // len threads+1
}

// of returns thread th's chunks.
func (p plan) of(th int) []chunk { return p.chunks[p.off[th]:p.off[th+1]] }

// chunksFor materializes the chunk list for a schedule over n
// iterations and k threads. Static chunks are pre-assigned (returned
// as a plan); dynamic/guided return a shared ordered list.
func chunksFor(s Schedule, n, k int) (static plan, shared []chunk) {
	switch s.Kind {
	case Static:
		static.off = make([]int, k+1)
		if s.Chunk <= 0 {
			// One contiguous block per thread, remainder spread left.
			static.chunks = make([]chunk, 0, min(n, k))
			base, rem := n/k, n%k
			lo := 0
			for t := 0; t < k; t++ {
				sz := base
				if t < rem {
					sz++
				}
				if sz > 0 {
					static.chunks = append(static.chunks, chunk{lo, lo + sz})
				}
				lo += sz
				static.off[t+1] = len(static.chunks)
			}
		} else {
			// Round-robin: chunk idx goes to thread idx%k.
			m := (n + s.Chunk - 1) / s.Chunk
			static.chunks = make([]chunk, 0, m)
			for t := 0; t < k; t++ {
				for idx := t; idx < m; idx += k {
					lo := idx * s.Chunk
					static.chunks = append(static.chunks, chunk{lo, min(lo+s.Chunk, n)})
				}
				static.off[t+1] = len(static.chunks)
			}
		}
		return static, nil
	case Dynamic:
		c := s.Chunk
		if c <= 0 {
			c = 1
		}
		shared = make([]chunk, 0, (n+c-1)/c)
		for lo := 0; lo < n; lo += c {
			hi := lo + c
			if hi > n {
				hi = n
			}
			shared = append(shared, chunk{lo, hi})
		}
		return plan{}, shared
	case Guided:
		minC := s.Chunk
		if minC <= 0 {
			minC = 1
		}
		remaining := n
		lo := 0
		for remaining > 0 {
			c := (remaining + 2*k - 1) / (2 * k)
			if c < minC {
				c = minC
			}
			if c > remaining {
				c = remaining
			}
			shared = append(shared, chunk{lo, lo + c})
			lo += c
			remaining -= c
		}
		return plan{}, shared
	default:
		panic(fmt.Sprintf("omp: unknown schedule kind %d", int(s.Kind)))
	}
}

// ParallelFor is ParallelRange with a per-element body: body runs once
// for every i of each chunk, in order. A nil body is allowed for
// timing-only loops.
func (t *Team) ParallelFor(s Schedule, n int, body Body, cost CostFn) *Stats {
	var rb RangeBody
	if body != nil {
		rb = func(th, lo, hi int) {
			for i := lo; i < hi; i++ {
				body(th, i)
			}
		}
	}
	return t.ParallelRange(s, n, rb, cost)
}

// ParallelRange executes body over [0,n) across the team using the
// given schedule, one call per planned chunk, charges virtual time
// (per-iteration costs from cost plus fork/join overhead) to the rank
// clock, and returns the region statistics.
//
// The iteration→thread assignment is computed deterministically: static
// schedules pre-assign chunks; dynamic/guided schedules are simulated
// in virtual time (each chunk goes to the currently least-busy virtual
// thread, plus a grab cost), so timing reflects the modelled machine
// rather than the host's scheduler. Bodies then execute concurrently
// with that assignment; they must be race-free. A nil body is allowed
// for timing-only loops.
func (t *Team) ParallelRange(s Schedule, n int, body RangeBody, cost CostFn) *Stats {
	if t.log != nil {
		if cost != nil {
			t.log.Unreplayable("omp.ParallelRange with a CostFn")
		} else {
			t.log.Region(s, n)
		}
	}
	k := t.Threads()
	st := &Stats{
		ThreadTime:  make([]float64, k),
		ThreadIters: make([]int64, k),
	}
	if n > 0 {
		p, shared := chunksFor(s, n, k)
		if p.off != nil {
			// Static: busy time is the serial sum of the thread's costs.
			for th := 0; th < k; th++ {
				for _, ch := range p.of(th) {
					st.ThreadIters[th] += int64(ch.hi - ch.lo)
					if cost != nil {
						for i := ch.lo; i < ch.hi; i++ {
							st.ThreadTime[th] += cost(i)
						}
					}
				}
			}
		} else {
			p = t.assignDemand(shared, cost, st)
		}
		if body != nil {
			t.execute(p, body)
		}
	}
	st.Overhead = t.regionOverhead()
	var maxT float64
	for _, v := range st.ThreadTime {
		if v > maxT {
			maxT = v
		}
	}
	if t.perturb != nil && maxT > 0 {
		st.Fault = t.perturb(t.clock.Now(), maxT) - maxT
	}
	st.Elapsed = maxT + st.Fault + st.Overhead
	t.clock.Advance(maxT, vtime.Compute)
	// Injected time is runtime interference, not useful compute.
	t.clock.Advance(st.Fault+st.Overhead, vtime.Runtime)
	if t.rec != nil {
		var busy float64
		for _, v := range st.ThreadTime {
			busy += v
		}
		t.rec.OMPRegion(t.recRank, st.Overhead, maxT-busy/float64(k))
	}
	return st
}

// assignDemand simulates on-demand chunk grabbing in virtual time:
// chunks are handed out in order, each to the virtual thread with the
// smallest accumulated busy time, which pays a grab cost plus the
// chunk's iteration costs. This is deterministic and mirrors how a
// dynamic schedule balances skewed work.
func (t *Team) assignDemand(shared []chunk, cost CostFn, st *Stats) plan {
	k := t.Threads()
	owner := make([]int, len(shared))
	off := make([]int, k+1)
	for c, ch := range shared {
		// Least-busy thread; ties broken by lowest id, as a real runtime's
		// first-waiter-wins race roughly does.
		th := 0
		for i := 1; i < k; i++ {
			if st.ThreadTime[i] < st.ThreadTime[th] {
				th = i
			}
		}
		st.ThreadTime[th] += t.over.DynamicGrab
		if cost != nil {
			for i := ch.lo; i < ch.hi; i++ {
				st.ThreadTime[th] += cost(i)
			}
		}
		st.ThreadIters[th] += int64(ch.hi - ch.lo)
		owner[c] = th
		off[th]++
	}
	// Stable counting sort by owner: off[th] first marks the end of
	// thread th's range, then counts down to its start as it fills.
	for th := 1; th < k; th++ {
		off[th] += off[th-1]
	}
	off[k] = len(shared)
	chunks := make([]chunk, len(shared))
	for c := len(shared) - 1; c >= 0; c-- {
		off[owner[c]]--
		chunks[off[owner[c]]] = shared[c]
	}
	return plan{chunks, off}
}

// execute hands each planned chunk to body once. Virtual threads are
// claimed from an atomic counter by t.workers goroutines, the caller
// and t.workers-1 helpers; with one worker the region runs inline. A
// thread's chunks run in order on the goroutine that claimed it, so
// thread ids, chunk assignment and per-thread order never depend on
// the host.
func (t *Team) execute(p plan, body RangeBody) {
	k := t.Threads()
	if t.workers <= 1 {
		for th := 0; th < k; th++ {
			runThread(p, th, body)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func() {
		defer wg.Done()
		for th := int(next.Add(1)) - 1; th < k; th = int(next.Add(1)) - 1 {
			runThread(p, th, body)
		}
	}
	wg.Add(1) // the caller's share
	for w := 1; w < t.workers; w++ {
		wg.Add(1)
		go work()
	}
	work()
	wg.Wait()
}

// runThread runs virtual thread th's chunks in order.
func runThread(p plan, th int, body RangeBody) {
	for _, ch := range p.of(th) {
		body(th, ch.lo, ch.hi)
	}
}
