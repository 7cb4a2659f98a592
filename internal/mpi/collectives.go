package mpi

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"fibersim/internal/obs"
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
	op    string // operation signature, for mismatch detection
	value any
	clock *vtime.Clock
}

// rendezvous runs one collective round. op is the operation signature
// (name plus shape); bytes is this rank's payload contribution (for
// accounting only); value is this rank's contribution; combine runs on
// the last arriver with all entries (sorted by rank) and returns the
// shared result; cost returns the collective's virtual cost given the
// synchronized start time. The returned value is combine's result.
func (c *Comm) rendezvous(op string, bytes int64, value any,
	combine func(entries []phaserEntry) (any, error),
	cost func() float64) (any, error) {

	if err := c.FaultCheck(); err != nil {
		return nil, err
	}
	c.world.stats.countCollective(op, bytes)
	traceStart := c.Clock().Now()
	// Self-observability: the rendezvous is collective host work, except
	// the clock-sync loop, measured below as vtime-advance, and the time
	// from parking to retaking a run slot, which is waiting, not work.
	costStart := c.world.cost.Begin()
	var excluded time.Duration
	defer func() {
		c.world.cost.EndExcluding(obs.StageCollective, costStart, excluded)
		end := c.Clock().Now()
		c.Trace(op, "mpi", traceStart, end)
		c.world.rec.MPIOp(c.rank, collectiveName(op), -1, bytes, end-traceStart)
	}()
	ph := c.world.ph
	ph.mu.Lock()
	gen := ph.cur
	ph.entries = append(ph.entries, phaserEntry{
		rank: c.rank, op: op, value: value, clock: c.Clock(),
	})
	if len(ph.entries) == c.Size() {
		// Last arriver: validate, combine, synchronize, wake.
		sort.Slice(ph.entries, func(i, j int) bool { return ph.entries[i].rank < ph.entries[j].rank })
		for _, e := range ph.entries {
			if e.op != op {
				gen.err = fmt.Errorf("mpi: mismatched collectives: rank %d called %s, rank %d called %s",
					e.rank, e.op, c.rank, op)
				break
			}
		}
		if gen.err == nil {
			seen := map[int]bool{}
			for _, e := range ph.entries {
				if seen[e.rank] {
					gen.err = fmt.Errorf("mpi: rank %d entered collective %s twice", e.rank, op)
					break
				}
				seen[e.rank] = true
			}
		}
		if gen.err == nil {
			gen.result, gen.err = combine(ph.entries)
		}
		clocks := make([]*vtime.Clock, len(ph.entries))
		for i, e := range ph.entries {
			clocks[i] = e.clock
		}
		start := vtime.Max(vtime.Comm, clocks...)
		syncT := start + cost()
		syncStart := c.world.cost.Begin()
		for _, cl := range clocks {
			cl.AdvanceTo(syncT, vtime.Comm)
		}
		excluded = c.world.cost.End(obs.StageVtimeAdvance, syncStart)
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
	c.world.blocked[c.rank] = BlockedOp{Rank: c.rank, Op: op, Peer: -1, Tag: -1, Clock: traceStart}
	ph.mu.Unlock()

	parkStart := c.world.cost.Begin()
	err := c.world.park(c.rank)
	excluded = c.world.cost.Begin().Sub(parkStart)
	if err != nil {
		return nil, err
	}
	return gen.result, gen.err
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
)

// noCombine is the combine step of a collective that returns no data.
func noCombine([]phaserEntry) (any, error) { return nil, nil }

// collective runs one round of kind with this rank's n-float64
// contribution value: it derives the operation signature, the payload
// accounting and the cost from (kind, op, n) alone, so a data-free
// replay (nil value, noCombine) costs exactly what the logged call did.
func (c *Comm) collective(kind Collective, op Op, n int, value any,
	combine func([]phaserEntry) (any, error)) (any, error) {
	f := c.world.coll
	p, b := c.Size(), float64Bytes(n)
	switch kind {
	case CollBarrier:
		return c.rendezvous("barrier", 0, value, combine,
			func() float64 { return f.Barrier(p) })
	case CollAllreduce:
		return c.rendezvous(fmt.Sprintf("allreduce/%s/n=%d", op, n), b, value, combine,
			func() float64 { return f.Allreduce(p, b, reduceGamma) })
	case CollAllgather:
		return c.rendezvous("allgather", b, value, combine,
			func() float64 { return f.Allgather(p, b) })
	default:
		return nil, fmt.Errorf("mpi: unknown collective %d", kind)
	}
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
