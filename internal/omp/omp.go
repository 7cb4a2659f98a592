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
	"slices"
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

// Team is one rank's thread team. It runs one region at a time, so a
// body must not start a region on its own team.
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

	// The running region's state, reused region after region (a team
	// runs one region at a time): its chunk plan and the arrays an
	// on-demand schedule is simulated in, its chunk body, and the
	// counter and WaitGroup of execute's workers. A ParallelFor's chunk
	// body is perElem, built once per team, which runs elems per
	// element.
	plan    plan
	busy    []float64 // per-thread busy time of a demand schedule
	grabbed []chunk   // a demand schedule's chunks, in grab order
	owner   []int     // the thread that grabbed each chunk
	body    RangeBody
	elems   Body
	perElem RangeBody
	next    atomic.Int64
	wg      sync.WaitGroup
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
	t := &Team{
		machine: m, cores: append([]int(nil), cores...), clock: clock,
		over: over, domains: len(domains), maxDomains: len(m.Domains),
		workers: min(len(cores), runtime.GOMAXPROCS(0)),
	}
	t.perElem = func(th, lo, hi int) {
		body := t.elems
		for i := lo; i < hi; i++ {
			body(th, i)
		}
	}
	return t, nil
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
// interference. The launcher binds this to the fault injector's
// per-rank Perturb; nil turns injection off.
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

// buildStatic deals n iterations to k threads before the loop runs,
// into p's arrays: one contiguous block per thread, or round-robin
// chunks when s.Chunk is set.
func (p *plan) buildStatic(s Schedule, n, k int) {
	p.off = slices.Grow(p.off[:0], k+1)[:k+1]
	p.off[0] = 0
	p.chunks = p.chunks[:0]
	if s.Chunk <= 0 {
		// One contiguous block per thread, remainder spread left.
		base, rem := n/k, n%k
		lo := 0
		for t := 0; t < k; t++ {
			sz := base
			if t < rem {
				sz++
			}
			if sz > 0 {
				p.chunks = append(p.chunks, chunk{lo, lo + sz})
			}
			lo += sz
			p.off[t+1] = len(p.chunks)
		}
		return
	}
	// Round-robin: chunk idx goes to thread idx%k.
	m := (n + s.Chunk - 1) / s.Chunk
	for t := 0; t < k; t++ {
		for idx := t; idx < m; idx += k {
			lo := idx * s.Chunk
			p.chunks = append(p.chunks, chunk{lo, min(lo+s.Chunk, n)})
		}
		p.off[t+1] = len(p.chunks)
	}
}

// demandEnd returns where the on-demand chunk that starts at lo ends:
// dynamic chunks are s.Chunk iterations (default 1), and guided chunks
// are the remaining iterations split 2k ways, at least s.Chunk.
func demandEnd(s Schedule, n, k, lo int) int {
	c := max(s.Chunk, 1)
	switch s.Kind {
	case Dynamic:
	case Guided:
		c = max(c, (n-lo+2*k-1)/(2*k))
	default:
		panic(fmt.Sprintf("omp: unknown schedule kind %d", int(s.Kind)))
	}
	return min(lo+c, n)
}

// ParallelFor is ParallelRange with a per-element body: body runs once
// for every i of each chunk, in order. A nil body is allowed for
// timing-only loops.
func (t *Team) ParallelFor(s Schedule, n int, body Body, cost CostFn) {
	if body == nil {
		t.ParallelRange(s, n, nil, cost)
		return
	}
	t.elems = body
	t.ParallelRange(s, n, t.perElem, cost)
	t.elems = nil
}

// ParallelRange executes body over [0,n) across the team using the
// given schedule, one call per planned chunk, and charges virtual time
// to the rank clock: the longest thread's busy time (per-iteration
// costs from cost, plus grab costs) as compute, then any fault-injected
// time and the fork/join overhead as runtime.
//
// The iteration→thread assignment is computed deterministically: static
// schedules pre-assign chunks; dynamic/guided schedules are simulated
// in virtual time (each chunk goes to the currently least-busy virtual
// thread, plus a grab cost), so timing reflects the modelled machine
// rather than the host's scheduler. Bodies then execute concurrently
// with that assignment; they must be race-free. A nil body is allowed
// for timing-only loops, and a static one with a nil cost builds no
// plan at all. Plans are built into arrays the team reuses, so a
// region allocates nothing for its plan.
func (t *Team) ParallelRange(s Schedule, n int, body RangeBody, cost CostFn) {
	if t.log != nil {
		if cost != nil {
			t.log.Unreplayable("omp.ParallelRange with a CostFn")
		} else {
			t.log.Region(s, n)
		}
	}
	k := t.Threads()
	var busy []float64 // per-thread busy time; nil while every thread's is 0
	if n > 0 {
		switch {
		case s.Kind != Static:
			busy = t.assignDemand(s, n, cost, body != nil)
		case body != nil || cost != nil:
			t.plan.buildStatic(s, n, k)
			if cost != nil {
				// Busy time is the serial sum of the thread's costs.
				busy = make([]float64, k)
				for th := range busy {
					for _, ch := range t.plan.of(th) {
						for i := ch.lo; i < ch.hi; i++ {
							busy[th] += cost(i)
						}
					}
				}
			}
		}
		if body != nil {
			t.execute(body)
		}
	}
	var maxT, sum float64
	for _, v := range busy {
		sum += v
		if v > maxT {
			maxT = v
		}
	}
	overhead := t.regionOverhead()
	var fault float64
	if t.perturb != nil && maxT > 0 {
		fault = t.perturb(t.clock.Now(), maxT) - maxT
	}
	t.clock.Advance(maxT, vtime.Compute)
	// Injected time is runtime interference, not useful compute.
	t.clock.Advance(fault+overhead, vtime.Runtime)
	t.rec.OMPRegion(t.recRank, overhead, maxT-sum/float64(k))
}

// assignDemand simulates on-demand chunk grabbing in virtual time:
// chunks are handed out in order, each to the virtual thread with the
// smallest busy time so far, which pays a grab cost plus the chunk's
// iteration costs. This is deterministic and mirrors how a dynamic
// schedule balances skewed work. It returns each thread's busy time,
// and builds the plan into t.plan only when withPlan is set; both live
// in the team's arrays until its next region.
func (t *Team) assignDemand(s Schedule, n int, cost CostFn, withPlan bool) []float64 {
	k := t.Threads()
	t.busy = slices.Grow(t.busy[:0], k)[:k]
	busy := t.busy
	clear(busy)
	grabbed, owner := t.grabbed[:0], t.owner[:0]
	for lo := 0; lo < n; {
		hi := demandEnd(s, n, k, lo)
		// Least-busy thread; ties broken by lowest id, as a real runtime's
		// first-waiter-wins race roughly does.
		th := 0
		for i := 1; i < k; i++ {
			if busy[i] < busy[th] {
				th = i
			}
		}
		busy[th] += t.over.DynamicGrab
		if cost != nil {
			for i := lo; i < hi; i++ {
				busy[th] += cost(i)
			}
		}
		if withPlan {
			grabbed = append(grabbed, chunk{lo, hi})
			owner = append(owner, th)
		}
		lo = hi
	}
	if !withPlan {
		return busy
	}
	t.grabbed, t.owner = grabbed, owner
	// Stable counting sort by owner: off[th] first marks the end of
	// thread th's range, then counts down to its start as it fills.
	off := slices.Grow(t.plan.off[:0], k+1)[:k+1]
	clear(off)
	for _, th := range owner {
		off[th]++
	}
	for th := 1; th < k; th++ {
		off[th] += off[th-1]
	}
	off[k] = len(grabbed)
	chunks := slices.Grow(t.plan.chunks[:0], len(grabbed))[:len(grabbed)]
	for c := len(grabbed) - 1; c >= 0; c-- {
		off[owner[c]]--
		chunks[off[owner[c]]] = grabbed[c]
	}
	t.plan = plan{chunks, off}
	return busy
}

// execute hands each chunk of t.plan to body once. Virtual threads
// are claimed from the team's atomic counter by t.workers goroutines,
// the caller and t.workers-1 helpers; with one worker the region runs
// inline. A thread's chunks run in order on the goroutine that claimed
// it, so thread ids, chunk assignment and per-thread order never
// depend on the host.
func (t *Team) execute(body RangeBody) {
	if t.workers <= 1 {
		for th := range t.Threads() {
			runThread(t.plan, th, body)
		}
		return
	}
	t.body = body
	t.next.Store(0)
	t.wg.Add(1) // the caller's share
	for w := 1; w < t.workers; w++ {
		t.wg.Add(1)
		go t.work()
	}
	t.work()
	t.wg.Wait()
	t.body = nil
}

// work claims virtual threads and runs them until none is left.
func (t *Team) work() {
	defer t.wg.Done()
	k := t.Threads()
	for th := int(t.next.Add(1)) - 1; th < k; th = int(t.next.Add(1)) - 1 {
		runThread(t.plan, th, t.body)
	}
}

// runThread runs virtual thread th's chunks in order.
func runThread(p plan, th int, body RangeBody) {
	for _, ch := range p.of(th) {
		body(th, ch.lo, ch.hi)
	}
}
