package mpi

import (
	"fmt"
	"sort"
	"sync"

	"fibersim/internal/vtime"
)

// phaser is the rendezvous structure behind collectives: all ranks of
// the world deposit their contribution; the last arriver verifies that
// everyone called the same operation, computes the result and the
// synchronized virtual time, and wakes everyone.
type phaser struct {
	mu      sync.Mutex
	entries []phaserEntry
	cur     *generation
}

// generation carries the result of one collective round; waiters keep a
// pointer so later rounds cannot overwrite what they read.
type generation struct {
	result any
	err    error
}

type phaserEntry struct {
	rank  int
	sig   signature // for mismatch detection
	bytes int64     // this rank's payload
	value any
	clock *vtime.Clock
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
// bytes is this rank's payload contribution; value is this rank's
// contribution; combine runs on the last arriver with all entries
// (sorted by rank) and returns the shared result. The round costs what
// the world's collective transport charges for its largest payload, so
// the cost does not depend on which rank arrives last. The returned
// value is combine's result.
func (c *Comm) rendezvous(sig signature, bytes int64, value any,
	combine func(entries []phaserEntry) (any, error)) (any, error) {

	if err := c.FaultCheck(); err != nil {
		return nil, err
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
	gen := ph.cur
	ph.entries = append(ph.entries, phaserEntry{
		rank: c.rank, sig: sig, bytes: bytes, value: value, clock: c.Clock(),
	})
	if len(ph.entries) == c.Size() {
		// Last arriver: validate, combine, synchronize, wake.
		sort.Slice(ph.entries, func(i, j int) bool { return ph.entries[i].rank < ph.entries[j].rank })
		for _, e := range ph.entries {
			if e.sig != sig {
				gen.err = fmt.Errorf("mpi: mismatched collectives: rank %d called %s, rank %d called %s",
					e.rank, e.sig, c.rank, sig)
				break
			}
		}
		for i := 1; gen.err == nil && i < len(ph.entries); i++ {
			if r := ph.entries[i].rank; r == ph.entries[i-1].rank {
				gen.err = fmt.Errorf("mpi: rank %d entered collective %s twice", r, sig)
			}
		}
		if gen.err == nil {
			gen.result, gen.err = combine(ph.entries)
		}
		var largest int64
		clocks := make([]*vtime.Clock, len(ph.entries))
		for i, e := range ph.entries {
			largest = max(largest, e.bytes)
			clocks[i] = e.clock
		}
		start := vtime.Max(vtime.Comm, clocks...)
		syncT := start + c.world.collectiveCost(sig.kind, c.Size(), largest)
		for _, cl := range clocks {
			cl.AdvanceTo(syncT, vtime.Comm)
		}
		for _, e := range ph.entries {
			if e.rank != c.rank {
				c.world.unpark(e.rank)
			}
		}
		// Reset for the next generation; the woken ranks read gen.
		clear(ph.entries)
		ph.entries = ph.entries[:0]
		ph.cur = &generation{}
		ph.mu.Unlock()
		return gen.result, gen.err
	}
	c.world.blocked[c.rank] = parked{waiting: true, sig: sig, peer: -1, clock: traceStart}
	ph.mu.Unlock()

	if err := c.world.park(c.rank); err != nil {
		return nil, err
	}
	return gen.result, gen.err
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

// noCombine is the combine step of a collective that returns no data.
func noCombine([]phaserEntry) (any, error) { return nil, nil }

// collective runs one round of kind with this rank's n-float64
// contribution value: it derives the signature and this rank's payload
// from (kind, op, n) alone, so a data-free replay (nil value,
// noCombine) of a logged round enters and costs exactly what the
// logged round did.
func (c *Comm) collective(kind Collective, op Op, n int, value any,
	combine func([]phaserEntry) (any, error)) (any, error) {
	sig, b := signature{kind: kind}, float64Bytes(n)
	switch kind {
	case CollBarrier:
		b = 0
	case CollAllreduce:
		sig.op, sig.n = op, n
	case CollAllgather:
	default:
		return nil, fmt.Errorf("mpi: unknown collective %d", kind)
	}
	return c.rendezvous(sig, b, value, combine)
}

// logCollective reports a collective to the log, if any.
func (c *Comm) logCollective(kind Collective, op Op, n int) {
	if c.log != nil {
		c.log.Collective(kind, op, n)
	}
}

// ReplayCollective repeats a logged collective with a data-free payload
// of n float64s: every rank must replay the same round, and the signature, bytes and virtual timing are those of the
// logged call.
func (c *Comm) ReplayCollective(kind Collective, op Op, n int) error {
	_, err := c.collective(kind, op, n, nil, noCombine)
	return err
}

// Barrier blocks until all ranks arrive and synchronizes their virtual
// clocks.
func (c *Comm) Barrier() error {
	c.logCollective(CollBarrier, 0, 0)
	_, err := c.collective(CollBarrier, 0, 0, nil, noCombine)
	return err
}

// reduceEntries folds the per-rank vectors element-wise with op.
func reduceEntries(op Op, entries []phaserEntry) ([]float64, error) {
	var acc []float64
	for _, e := range entries {
		v, ok := e.value.([]float64)
		if !ok {
			return nil, fmt.Errorf("mpi: reduce rank %d supplied no data", e.rank)
		}
		if acc == nil {
			acc = append([]float64(nil), v...)
			continue
		}
		if len(v) != len(acc) {
			return nil, fmt.Errorf("mpi: reduce length mismatch: rank %d has %d elements, expected %d",
				e.rank, len(v), len(acc))
		}
		for i, x := range v {
			acc[i] = op.apply(acc[i], x)
		}
	}
	return acc, nil
}

// Allreduce combines data element-wise across ranks; every rank gets
// the result.
func (c *Comm) Allreduce(op Op, data []float64) ([]float64, error) {
	c.logCollective(CollAllreduce, op, len(data))
	res, err := c.collective(CollAllreduce, op, len(data), data,
		func(entries []phaserEntry) (any, error) { return reduceEntries(op, entries) })
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), res.([]float64)...), nil
}

// AllreduceScalar is Allreduce for a single value.
func (c *Comm) AllreduceScalar(op Op, v float64) (float64, error) {
	res, err := c.Allreduce(op, []float64{v})
	if err != nil {
		return 0, err
	}
	return res[0], nil
}

// Allgather collects every rank's buffer on every rank, indexed by rank.
func (c *Comm) Allgather(data []float64) ([][]float64, error) {
	c.logCollective(CollAllgather, 0, len(data))
	res, err := c.collective(CollAllgather, 0, len(data), data,
		func(entries []phaserEntry) (any, error) {
			out := make([][]float64, len(entries))
			for i, e := range entries {
				v, _ := e.value.([]float64)
				out[i] = append([]float64(nil), v...)
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	all := res.([][]float64)
	out := make([][]float64, len(all))
	for i, v := range all {
		out[i] = append([]float64(nil), v...)
	}
	return out, nil
}
