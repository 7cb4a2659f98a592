package mpi

import (
	"fmt"
	"sync"

	"fibersim/internal/vtime"
)

// phaser is the rendezvous structure behind collectives: each rank of
// the world deposits its entry; the last arriver verifies that everyone
// called the same operation, moves the data between the callers'
// buffers, synchronizes the virtual clocks and wakes everyone.
type phaser struct {
	mu      sync.Mutex
	entries []phaserEntry // indexed by rank; set while the rank is in the round
	arrived int

	// err is the outcome of the last completed round. The last arriver
	// sets it before waking the others, and a woken rank reads it before
	// it can enter the next round, which cannot complete without it.
	err error
}

// phaserEntry is one rank's part in a round: data is what it
// contributes and dst, for an Allgather, where it receives. A data-free
// replay enters with neither.
type phaserEntry struct {
	entered bool
	sig     signature // for mismatch detection
	bytes   int64     // this rank's payload
	data    []float64
	dst     []float64
}

// Collective names the collectives a Log records and ReplayCollective
// repeats.
type Collective uint8

const (
	// CollBarrier is Barrier.
	CollBarrier Collective = iota
	// CollAllreduce is Allreduce (and AllreduceScalar).
	CollAllreduce
	// CollAllgather is Allgather.
	CollAllgather
	numCollectives
)

// String returns the collective's name, which keys its CommStats
// entries and its Recorder op.
func (k Collective) String() string {
	switch k {
	case CollBarrier:
		return "barrier"
	case CollAllreduce:
		return "allreduce"
	case CollAllgather:
		return "allgather"
	default:
		return fmt.Sprintf("collective(%d)", int(k))
	}
}

// signature identifies a collective round: every rank must enter it
// with the same value. An Allreduce's carries its operator and length;
// the ranks of an Allgather may pass different lengths, and a Barrier
// has neither.
type signature struct {
	kind Collective
	op   Op
	n    int
}

// String renders the signature for a mismatch error, a deadlock dump
// or a trace event: "barrier", "allreduce/sum/n=2" or "allgather".
func (s signature) String() string {
	if s.kind == CollAllreduce {
		return fmt.Sprintf("allreduce/%s/n=%d", s.op, s.n)
	}
	return s.kind.String()
}

// rendezvous runs one collective round. sig is the round's signature;
// bytes is this rank's payload contribution; data and dst are this
// rank's buffers (see phaserEntry). The last arriver checks the round,
// moves the data (combine) and costs the round at what the world's
// collective transport charges for its largest payload, so the cost
// does not depend on which rank arrives last. A round that fails its
// checks writes no caller's buffer, and every rank gets its error.
func (c *Comm) rendezvous(sig signature, bytes int64, data, dst []float64) error {
	if err := c.FaultCheck(); err != nil {
		return err
	}
	c.world.stats.countCollective(sig.kind, bytes)
	traceStart := c.Clock().Now()
	defer func() {
		end := c.Clock().Now()
		if c.world.traces != nil {
			c.Trace(sig.String(), "mpi", traceStart, end)
		}
		c.world.rec.MPIOp(c.rank, sig.kind.String(), -1, bytes, end-traceStart)
	}()
	ph := c.world.ph
	ph.mu.Lock()
	if ph.entries[c.rank].entered {
		ph.mu.Unlock()
		return fmt.Errorf("mpi: rank %d entered collective %s twice", c.rank, sig)
	}
	ph.entries[c.rank] = phaserEntry{entered: true, sig: sig, bytes: bytes, data: data, dst: dst}
	ph.arrived++
	if ph.arrived < c.Size() {
		c.world.blocked[c.rank] = parked{waiting: true, sig: sig, peer: -1, clock: traceStart}
		ph.mu.Unlock()
		if err := c.world.park(c.rank); err != nil {
			return err
		}
		return ph.err
	}
	// Last arriver: validate, combine, synchronize, wake.
	var err error
	var largest int64
	for r, e := range ph.entries {
		if e.sig != sig && err == nil {
			err = fmt.Errorf("mpi: mismatched collectives: rank %d called %s, rank %d called %s",
				r, e.sig, c.rank, sig)
		}
		largest = max(largest, e.bytes)
	}
	if err == nil {
		err = combine(sig, ph.entries)
	}
	// Every clock is in the round: first to the latest entry, then
	// to the end of the round.
	start := vtime.Max(vtime.Comm, c.world.clocks...)
	end := start + c.world.collectiveCost(sig.kind, c.Size(), largest)
	for _, cl := range c.world.clocks {
		cl.AdvanceTo(end, vtime.Comm)
	}
	clear(ph.entries)
	ph.arrived = 0
	ph.err = err
	for r := range c.Size() {
		if r != c.rank {
			c.world.unpark(r)
		}
	}
	ph.mu.Unlock()
	return err
}

// combine moves a checked round's data between its entries, which are
// indexed by rank: an Allreduce folds ranks 1..P-1 into rank 0's
// buffer, in rank order, and copies the result to the other ranks; an
// Allgather copies every rank's data, in rank order, into each dst. It
// checks the whole round before it writes any buffer. A round whose
// every entry is data-free (a replay) moves nothing.
func combine(sig signature, entries []phaserEntry) error {
	switch sig.kind {
	case CollAllreduce:
		// The signature fixes every rank's length, and a data-free
		// replay's nil buffers fold and copy nothing.
		acc := entries[0].data
		for _, e := range entries[1:] {
			for i, x := range e.data {
				acc[i] = sig.op.apply(acc[i], x)
			}
		}
		for _, e := range entries[1:] {
			copy(e.data, acc)
		}
	case CollAllgather:
		total := 0
		for _, e := range entries {
			total += len(e.data)
		}
		for r, e := range entries {
			if len(e.dst) != total {
				return fmt.Errorf("mpi: allgather rank %d passed a dst of %d float64s for the %d gathered",
					r, len(e.dst), total)
			}
		}
		for _, e := range entries {
			off := 0
			for _, src := range entries {
				off += copy(e.dst[off:], src.data)
			}
		}
	}
	return nil
}

// collectiveCost returns the virtual cost of one round of kind among p
// ranks whose largest payload is b bytes.
func (w *World) collectiveCost(kind Collective, p int, b int64) float64 {
	switch kind {
	case CollAllreduce:
		return w.coll.Allreduce(p, b, reduceGamma)
	case CollAllgather:
		return w.coll.Allgather(p, b)
	default:
		return w.coll.Barrier(p)
	}
}

// collective runs one round of kind with this rank's n-float64
// contribution data (and, for an Allgather, its receive buffer dst):
// it derives the signature and this rank's payload from (kind, op, n)
// alone, so a data-free replay (nil data and dst) of a logged round
// enters and costs exactly what the logged round did.
func (c *Comm) collective(kind Collective, op Op, n int, data, dst []float64) error {
	sig, b := signature{kind: kind}, float64Bytes(n)
	switch kind {
	case CollBarrier:
		b = 0
	case CollAllreduce:
		sig.op, sig.n = op, n
	case CollAllgather:
	default:
		return fmt.Errorf("mpi: unknown collective %d", kind)
	}
	return c.rendezvous(sig, b, data, dst)
}

// logCollective reports a collective to the log, if any.
func (c *Comm) logCollective(kind Collective, op Op, n int) {
	if c.log != nil {
		c.log.Collective(kind, op, n)
	}
}

// ReplayCollective repeats a logged collective with a data-free payload
// of n float64s: every rank must replay the same round, and the
// signature, bytes and virtual timing are those of the logged call.
func (c *Comm) ReplayCollective(kind Collective, op Op, n int) error {
	return c.collective(kind, op, n, nil, nil)
}

// Barrier blocks until all ranks arrive and synchronizes their virtual
// clocks.
func (c *Comm) Barrier() error {
	c.logCollective(CollBarrier, 0, 0)
	return c.collective(CollBarrier, 0, 0, nil, nil)
}

// Allreduce combines data element-wise across ranks, in place, as
// MPI_IN_PLACE does: when it returns, every rank's data holds the
// result, folded in rank order. A failed round leaves data untouched.
func (c *Comm) Allreduce(op Op, data []float64) error {
	c.logCollective(CollAllreduce, op, len(data))
	return c.collective(CollAllreduce, op, len(data), data, nil)
}

// AllreduceScalar is Allreduce for a single value, reduced through a
// one-element buffer the Comm owns.
func (c *Comm) AllreduceScalar(op Op, v float64) (float64, error) {
	c.scalar[0] = v
	if err := c.Allreduce(op, c.scalar[:]); err != nil {
		return 0, err
	}
	return c.scalar[0], nil
}

// Allgather writes every rank's data into dst, in rank order. Ranks may
// pass different lengths; dst must hold their sum, or every rank gets
// an error naming the rank and both lengths, and no dst is written.
// dst must not overlap data.
func (c *Comm) Allgather(dst, data []float64) error {
	c.logCollective(CollAllgather, 0, len(data))
	return c.collective(CollAllgather, 0, len(data), data, dst)
}
