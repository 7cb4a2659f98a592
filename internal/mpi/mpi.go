// Package mpi is a functional, in-process MPI runtime.
//
// Ranks are goroutines; messages really travel between them, so
// matching, ordering, deadlock and misuse are all observable in tests.
// Timing is virtual: every rank owns a vtime.Clock, point-to-point
// completion follows the conservative rule
//
//	recvDone = max(recvClock, sendClock + fabric.PointToPoint(bytes))
//
// and collectives synchronize all clocks to max(clocks) + an analytic
// cost from internal/simnet. Ranks are placed on simulated nodes
// (Config.RanksPerNode); intra-node pairs use the shared-memory fabric,
// inter-node pairs the machine's fabric.
//
// # Execution contract
//
// A world runs at most P = min(Ranks, GOMAXPROCS) rank bodies at once.
// Each rank holds one of P run slots while it computes: it takes a slot
// before its body starts and frees it when the body returns or panics.
// A rank gives its slot back early in exactly two places, the only
// places it parks:
//
//   - in Sendrecv's receive when no queued message matches;
//   - in a collective when it is not the last rank to arrive.
//
// It records the park under the lock that proves the wait (its mailbox
// lock, or the world's phaser lock), frees its slot and sleeps.
// Whoever ends the wait (the matching sender or the collective's last
// arriver) marks it runnable before waking it,
// and the woken rank only retakes a slot. Other waits inside a rank
// body, such as a sync.Once shared by the ranks or an omp region's
// join, keep the slot, so a rank body must wait on another rank only
// through this package. omp's helper goroutines are not ranks and hold
// no slot.
//
// Because the world knows exactly which ranks can run, deadlock is
// detected exactly, never by a wall-clock timeout: a park or a return
// that leaves no rank running or runnable while some rank is still
// live is a deadlock. That rank builds a DeadlockError naming every
// blocked rank and aborts the world, which releases the parked ranks at
// once, including ranks parked on a rank that failed or panicked. A
// rank that computes forever is not a deadlock; callers bound it from
// outside (fiberd's -job-timeout).
//
// The model reads virtual clocks only, never host order, so the slot
// count changes no model output.
package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"fibersim/internal/fault"
	"fibersim/internal/obs"
	"fibersim/internal/simnet"
	"fibersim/internal/trace"
	"fibersim/internal/vtime"
)

// Op is a reduction operator.
type Op int

const (
	// OpSum adds elements.
	OpSum Op = iota
	// OpMax takes the element-wise maximum.
	OpMax
)

// String returns the operator name.
func (o Op) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

func (o Op) apply(acc, v float64) float64 {
	switch o {
	case OpSum:
		return acc + v
	case OpMax:
		if v > acc {
			return v
		}
		return acc
	default:
		panic(fmt.Sprintf("mpi: unknown op %d", int(o)))
	}
}

// ErrDeadlock marks a world in which every live rank is parked in a
// receive or a collective that no running rank can complete.
var ErrDeadlock = errors.New("mpi: deadlock")

// Config describes an MPI world.
type Config struct {
	// Ranks is the number of MPI processes.
	Ranks int
	// RanksPerNode places ranks onto simulated nodes; 0 means all ranks
	// share one node.
	RanksPerNode int
	// Fabric is the inter-node network; nil defaults to "tofud".
	Fabric *simnet.Fabric
	// PairScale, when non-nil, multiplies the point-to-point cost
	// between two ranks — the hook the launcher uses to make
	// messages between ranks in different NUMA domains slightly more
	// expensive than within a domain.
	PairScale func(src, dst int) float64
	// Topology, when non-nil, gives hop distances between NODES; each
	// hop beyond the first adds Fabric.HopLatency to inter-node
	// messages (see simnet.TorusHops / TofuDTopology).
	Topology simnet.Topology
	// TraceCapacity, when positive, records up to this many timeline
	// events per rank (kernel charges via Comm.Trace, MPI operations
	// automatically); Result.Traces carries the logs.
	TraceCapacity int
	// Recorder, when non-nil, receives per-op/per-peer communication
	// spans (bytes moved, virtual wait time) from every rank.
	Recorder *obs.Recorder
	// Fault, when non-nil, injects the compiled fault schedule: link
	// faults scale point-to-point costs in post, and FaultCheck fires
	// scheduled rank crashes as world-wide aborts.
	Fault *fault.Injector
	// Cost, when non-nil, receives the simulator's own wall-clock
	// spend: collective rendezvous and virtual-clock advancement are
	// charged to their self-observability stages.
	Cost *obs.CostRecorder
}

func (c Config) withDefaults() Config {
	if c.RanksPerNode <= 0 || c.RanksPerNode > c.Ranks {
		c.RanksPerNode = c.Ranks
	}
	if c.Fabric == nil {
		c.Fabric = simnet.MustLookup("tofud")
	}
	return c
}

// reduceGamma is the per-byte local combine cost charged inside
// reductions, in seconds per byte.
const reduceGamma = 0.25e-9

// message is one in-flight point-to-point message.
type message struct {
	src, tag int
	data     []float64
	bytes    int64
	avail    float64 // virtual time at which the payload is available
	flow     uint64  // world-unique message id, links send/recv trace slices
}

// matches reports whether m satisfies a receive for (src, tag).
func (m *message) matches(src, tag int) bool {
	return m.src == src && m.tag == tag
}

// mailbox holds one rank's posted-but-unreceived messages, in arrival
// order, and the rank's parked receive, if any.
type mailbox struct {
	mu    sync.Mutex
	queue []*message

	// parked is set while the owner sleeps in a receive for (src, tag);
	// the first matching post hands its message over in got.
	parked   bool
	src, tag int
	got      *message
}

// World is a running MPI job.
type World struct {
	cfg    Config
	intra  *simnet.Fabric // the intra-node transport
	coll   *simnet.Fabric // the transport collectives are costed on
	boxes  []*mailbox
	clocks []*vtime.Clock
	ph     *phaser // the world's collective rendezvous
	stats  *statCounters
	traces []*trace.Log // per rank, nil when tracing is off
	rec    *obs.Recorder
	cost   *obs.CostRecorder
	msgID  atomic.Uint64 // flow ids; 0 is reserved for "no flow"

	// The rank scheduler (see the package doc). A rank holds a slot
	// while it runs; wake[r] carries the one signal that ends rank r's
	// park. active counts the ranks running or runnable, live the
	// ranks whose body has not returned; both start at Ranks.
	slots  chan struct{}
	wake   []chan struct{}
	active atomic.Int64
	live   atomic.Int64

	inj       *fault.Injector // nil on clean runs
	blocked   []BlockedOp     // per rank, the op it is parked in; Op "" when none
	abortCh   chan struct{}   // closed on world-wide abort
	abortOnce sync.Once
	abortErr  error // root cause; written once before abortCh closes
}

// fabricFor returns the transport between two ranks.
func (w *World) fabricFor(a, b int) *simnet.Fabric {
	if a/w.cfg.RanksPerNode == b/w.cfg.RanksPerNode {
		return w.intra
	}
	return w.cfg.Fabric
}

// pairScale returns the placement-dependent cost multiplier for a
// message between two ranks.
func (w *World) pairScale(a, b int) float64 {
	if w.cfg.PairScale == nil {
		return 1
	}
	s := w.cfg.PairScale(a, b)
	if s < 1 {
		return 1
	}
	return s
}

// hopExtra returns the topology-dependent extra latency between two
// ranks.
func (w *World) hopExtra(a, b int) float64 {
	if w.cfg.Topology == nil {
		return 0
	}
	na, nb := a/w.cfg.RanksPerNode, b/w.cfg.RanksPerNode
	if na == nb {
		return 0
	}
	hops := w.cfg.Topology(na, nb)
	if hops <= 1 {
		return 0
	}
	return w.cfg.Fabric.HopLatency.Times(float64(hops - 1)).Raw()
}

// Result reports the outcome of a Run.
type Result struct {
	// Times[r] is rank r's final virtual clock in seconds.
	Times []float64
	// Breakdowns[r] is rank r's spend breakdown.
	Breakdowns []vtime.Breakdown
	// Comm profiles the communication (messages, bytes, collectives).
	Comm CommStats
	// Traces holds one event log per rank when tracing was enabled.
	Traces []*trace.Log
}

// MaxTime returns the job's virtual makespan.
func (r *Result) MaxTime() float64 {
	var m float64
	for _, t := range r.Times {
		if t > m {
			m = t
		}
	}
	return m
}

// Series returns the per-rank times as a vtime.Series.
func (r *Result) Series() *vtime.Series {
	s := vtime.NewSeries("rank time")
	for _, t := range r.Times {
		s.Add(t)
	}
	return s
}

// Breakdown returns the breakdown of the slowest rank (the one that
// determines the makespan).
func (r *Result) Breakdown() vtime.Breakdown {
	var best vtime.Breakdown
	var m float64 = -1
	for i, t := range r.Times {
		if t > m {
			m = t
			best = r.Breakdowns[i]
		}
	}
	return best
}

// Run executes body on every rank of a fresh world and waits for all of
// them. The first rank error (or recovered panic) is returned, or else
// the root cause of a world-wide abort; all ranks always run to
// completion or failure so goroutines never leak. At most
// min(Ranks, GOMAXPROCS) bodies compute at once (see the package doc).
func Run(cfg Config, body func(*Comm) error) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("mpi: need at least one rank, got %d", cfg.Ranks)
	}
	w := &World{
		cfg:     cfg,
		intra:   simnet.MustLookup("shm"),
		boxes:   make([]*mailbox, cfg.Ranks),
		clocks:  make([]*vtime.Clock, cfg.Ranks),
		ph:      &phaser{cur: &generation{}},
		stats:   newStatCounters(),
		rec:     cfg.Recorder,
		cost:    cfg.Cost,
		slots:   make(chan struct{}, min(cfg.Ranks, runtime.GOMAXPROCS(0))),
		wake:    make([]chan struct{}, cfg.Ranks),
		inj:     cfg.Fault,
		blocked: make([]BlockedOp, cfg.Ranks),
		abortCh: make(chan struct{}),
	}
	// Collectives cross the fabric as soon as the world spans nodes.
	w.coll = w.intra
	if cfg.RanksPerNode < cfg.Ranks {
		w.coll = cfg.Fabric
	}
	w.active.Store(int64(cfg.Ranks))
	w.live.Store(int64(cfg.Ranks))
	if cfg.TraceCapacity > 0 {
		w.traces = make([]*trace.Log, cfg.Ranks)
		for r := range w.traces {
			w.traces[r] = trace.NewLog(cfg.TraceCapacity)
		}
	}
	for r := 0; r < cfg.Ranks; r++ {
		w.boxes[r] = &mailbox{}
		w.clocks[r] = &vtime.Clock{}
		w.wake[r] = make(chan struct{}, 1)
	}

	errs := make([]error, cfg.Ranks)
	var wg sync.WaitGroup
	for r := 0; r < cfg.Ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			w.slots <- struct{}{}
			defer w.exit(rank)
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
				}
			}()
			errs[rank] = body(&Comm{world: w, rank: rank})
		}(r)
	}
	wg.Wait()

	res := &Result{
		Times:      make([]float64, cfg.Ranks),
		Breakdowns: make([]vtime.Breakdown, cfg.Ranks),
		Comm:       w.stats.snapshot(),
		Traces:     w.traces,
	}
	for r := 0; r < cfg.Ranks; r++ {
		res.Times[r] = w.clocks[r].Now()
		res.Breakdowns[r] = w.clocks[r].Breakdown()
	}
	// Prefer a rank's own error over the AbortErrors the other ranks
	// observe after a crash or deadlock abort; failing that, return the
	// abort's root cause.
	aborted := false
	for _, err := range errs {
		if err == nil {
			continue
		}
		var ae *AbortError
		if !errors.As(err, &ae) {
			return res, err
		}
		aborted = true
	}
	if aborted {
		return res, w.abortErr
	}
	return res, nil
}

// Comm is one rank's handle on the world communicator.
type Comm struct {
	world *World
	rank  int
	log   Log // nil when the rank program is not being logged
}

// Log receives a rank's model-visible communication in program order,
// so a launcher can record a rank program and later repeat its timing
// through ReplaySendrecv and ReplayCollective.
type Log interface {
	// Sendrecv records one Sendrecv of n float64s.
	Sendrecv(dst, sendTag, src, recvTag, n int)
	// Collective records one collective entered with this rank's n
	// float64s; op is the reduction operator of an Allreduce.
	Collective(kind Collective, op Op, n int)
}

// LogTo attaches an operation log to this communicator handle; nil
// turns logging off.
func (c *Comm) LogTo(l Log) { c.log = l }

// Rank returns the caller's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return len(c.world.clocks) }

// Clock returns the caller's virtual clock.
func (c *Comm) Clock() *vtime.Clock { return c.world.clocks[c.rank] }

// Trace records a timeline event on the caller's track (no-op when
// tracing is off). Start and end are virtual times.
func (c *Comm) Trace(name, cat string, start, end float64) {
	c.traceFlow(name, cat, start, end, 0, trace.FlowNone)
}

// traceFlow is Trace with a flow-arrow endpoint attached.
func (c *Comm) traceFlow(name, cat string, start, end float64, flow uint64, kind trace.FlowPhase) {
	if c.world.traces == nil || c.world.traces[c.rank] == nil {
		return
	}
	c.world.traces[c.rank].Add(trace.Event{
		Name: name, Cat: cat, Rank: c.rank,
		Start: start, End: end,
		Flow: flow, FlowKind: kind,
	})
}

func (c *Comm) checkPeer(r int) error {
	if r < 0 || r >= c.Size() {
		return fmt.Errorf("mpi: rank %d out of range [0,%d)", r, c.Size())
	}
	return nil
}

func float64Bytes(n int) int64 { return int64(n) * 8 }

// post finalizes and delivers a point-to-point message: it charges the
// sender's overhead, stamps the flow id and availability time, counts
// the send, traces the send slice (the FlowOut end of the message
// arrow) and records the operation span.
func (c *Comm) post(dst int, m *message) {
	src := c.rank
	f := c.world.fabricFor(src, dst)
	clk := c.Clock()
	t0 := clk.Now()
	clk.Advance(f.SendOverhead(), vtime.Comm)
	m.flow = c.world.msgID.Add(1)
	// Link faults scale the transfer term only (the overhead and hop
	// latency model the endpoints, not the degraded link).
	transfer := f.PointToPoint(m.bytes) * c.world.pairScale(src, dst) * c.world.linkScale(src, dst, clk.Now())
	m.avail = clk.Now() + transfer + c.world.hopExtra(src, dst)
	c.world.stats.countSend(m.bytes)
	c.traceFlow("send", "mpi", t0, clk.Now(), m.flow, trace.FlowOut)
	c.world.rec.MPIOp(src, "send", dst, m.bytes, clk.Now()-t0)
	c.world.deliver(dst, m)
}

// deliver queues m for rank dst, or hands it straight to dst's parked
// receive when it matches, marking dst runnable before waking it. A
// post that does not match leaves the receive asleep.
func (w *World) deliver(dst int, m *message) {
	mb := w.boxes[dst]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.parked && m.matches(mb.src, mb.tag) {
		mb.parked, mb.got = false, m
		w.unpark(dst)
		return
	}
	mb.queue = append(mb.queue, m)
}

// receive removes and returns rank g's oldest queued message matching
// (src, tag). When none has arrived, it records the park as b under
// the mailbox lock and parks until a matching post wakes it.
func (w *World) receive(g, src, tag int, b BlockedOp) (*message, error) {
	mb := w.boxes[g]
	mb.mu.Lock()
	for i, m := range mb.queue {
		if m.matches(src, tag) {
			mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
			mb.mu.Unlock()
			return m, nil
		}
	}
	mb.parked, mb.src, mb.tag = true, src, tag
	w.blocked[g] = b
	mb.mu.Unlock()
	if err := w.park(g); err != nil {
		return nil, err
	}
	m := mb.got
	mb.got = nil
	return m, nil
}

// Sendrecv posts a send to dst and then receives from src, the usual
// halo-exchange primitive. The eager send makes the symmetric pattern
// deadlock-free.
func (c *Comm) Sendrecv(dst, sendTag int, data []float64, src, recvTag int) ([]float64, error) {
	if c.log != nil {
		c.log.Sendrecv(dst, sendTag, src, recvTag, len(data))
	}
	return c.sendrecv(dst, sendTag, data, len(data), src, recvTag)
}

// ReplaySendrecv repeats a logged Sendrecv of n float64s with a
// data-free payload: the peers, tags, bytes and virtual timing are
// those of the logged call, and nothing is received.
func (c *Comm) ReplaySendrecv(dst, sendTag, src, recvTag, n int) error {
	_, err := c.sendrecv(dst, sendTag, nil, n, src, recvTag)
	return err
}

// sendrecv posts a copy of data to dst as an n-float64 message (nil
// data posts a data-free message that costs and counts the same), then
// blocks until the message from src tagged recvTag arrives and
// advances the caller's clock to its availability time. The send is
// eager: the sender pays only the send overhead before it receives.
func (c *Comm) sendrecv(dst, sendTag int, data []float64, n, src, recvTag int) ([]float64, error) {
	if err := c.checkPeer(dst); err != nil {
		return nil, err
	}
	if err := c.checkPeer(src); err != nil {
		return nil, err
	}
	if err := c.FaultCheck(); err != nil {
		return nil, err
	}
	c.post(dst, &message{
		src:   c.rank,
		tag:   sendTag,
		data:  append([]float64(nil), data...),
		bytes: float64Bytes(n),
	})
	if err := c.FaultCheck(); err != nil {
		return nil, err
	}
	t0 := c.Clock().Now()
	m, err := c.world.receive(c.rank, src, recvTag, BlockedOp{Rank: c.rank, Op: "recv", Peer: src, Tag: recvTag, Clock: t0})
	if err != nil {
		return nil, err
	}
	vs := c.world.cost.Begin()
	c.Clock().AdvanceTo(m.avail, vtime.Comm)
	c.world.cost.End(obs.StageVtimeAdvance, vs)
	end := c.Clock().Now()
	c.traceFlow("recv", "mpi", t0, end, m.flow, trace.FlowIn)
	c.world.rec.MPIOp(c.rank, "recv", m.src, m.bytes, end-t0)
	return m.data, nil
}
