package mpi

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"fibersim/internal/obs"
	"fibersim/internal/vtime"
)

// phaser is the rendezvous structure behind collectives: all ranks of a
// communicator deposit their contribution; the last arriver verifies
// that everyone called the same operation, computes the result and the
// synchronized virtual time, and wakes everyone.
type phaser struct {
	mu      sync.Mutex
	size    int
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

func (w *World) phaserFor(commID string, size int) *phaser {
	w.phMu.Lock()
	defer w.phMu.Unlock()
	ph, ok := w.phaser[commID]
	if !ok {
		ph = &phaser{size: size, cur: &generation{}}
		w.phaser[commID] = ph
	}
	return ph
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
		c.world.rec.MPIOp(c.global(c.rank), collectiveName(op), -1, bytes, end-traceStart)
	}()
	ph := c.world.phaserFor(c.id, len(c.group))
	ph.mu.Lock()
	gen := ph.cur
	ph.entries = append(ph.entries, phaserEntry{
		rank: c.rank, op: op, value: value, clock: c.Clock(),
	})
	if len(ph.entries) == ph.size {
		// Last arriver: validate, combine, synchronize, wake.
		sort.Slice(ph.entries, func(i, j int) bool { return ph.entries[i].rank < ph.entries[j].rank })
		for _, e := range ph.entries {
			if e.op != op {
				gen.err = fmt.Errorf("mpi: mismatched collectives on %q: rank %d called %s, rank %d called %s",
					c.id, e.rank, e.op, c.rank, op)
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
				c.world.unpark(c.global(e.rank))
			}
		}
		// Reset for the next generation; the woken ranks read gen.
		clear(ph.entries)
		ph.entries = ph.entries[:0]
		ph.cur = &generation{}
		ph.mu.Unlock()
		return gen.result, gen.err
	}
	g := c.global(c.rank)
	c.world.blocked[g] = BlockedOp{Rank: g, Op: op, Peer: -1, Tag: -1, Clock: traceStart}
	ph.mu.Unlock()

	parkStart := c.world.cost.Begin()
	err := c.world.park(g)
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
	f := c.world.collectiveFabric(c.group)
	p, b := len(c.group), float64Bytes(n)
	switch kind {
	case CollBarrier:
		return c.rendezvous("barrier", 0, value, combine,
			func() float64 { return f.Barrier(p) })
	case CollAllreduce:
		return c.rendezvous(fmt.Sprintf("allreduce/%s/n=%d", op, n), b, value, combine,
			func() float64 { return f.Allreduce(p, b, c.world.cfg.ReduceGamma) })
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
// of n float64s: every rank of the communicator must replay the same
// round, and the signature, bytes and virtual timing are those of the
// logged call.
func (c *Comm) ReplayCollective(kind Collective, op Op, n int) error {
	_, err := c.collective(kind, op, n, nil, noCombine)
	return err
}

// Barrier blocks until all ranks of the communicator arrive and
// synchronizes their virtual clocks.
func (c *Comm) Barrier() error {
	c.logCollective(CollBarrier, 0, 0)
	_, err := c.collective(CollBarrier, 0, 0, nil, noCombine)
	return err
}

// Bcast broadcasts root's buffer to all ranks; non-root ranks pass nil
// and receive the copy. All ranks receive the result slice.
func (c *Comm) Bcast(root int, data []float64) ([]float64, error) {
	c.unreplayable("mpi.Bcast")
	if err := c.checkPeer(root); err != nil {
		return nil, err
	}
	f := c.world.collectiveFabric(c.group)
	var n int64
	res, err := c.rendezvous(fmt.Sprintf("bcast/root=%d", root), float64Bytes(len(data)), data,
		func(entries []phaserEntry) (any, error) {
			buf, _ := entries[root].value.([]float64)
			if buf == nil {
				return nil, fmt.Errorf("mpi: bcast root %d supplied no data", root)
			}
			n = float64Bytes(len(buf))
			return append([]float64(nil), buf...), nil
		},
		func() float64 { return f.Bcast(len(c.group), n) })
	if err != nil {
		return nil, err
	}
	// Every rank gets its own copy so receivers can mutate freely.
	return append([]float64(nil), res.([]float64)...), nil
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

// Reduce combines data element-wise across ranks with op; the result is
// returned on root and nil elsewhere.
func (c *Comm) Reduce(root int, op Op, data []float64) ([]float64, error) {
	c.unreplayable("mpi.Reduce")
	if err := c.checkPeer(root); err != nil {
		return nil, err
	}
	f := c.world.collectiveFabric(c.group)
	n := float64Bytes(len(data))
	res, err := c.rendezvous(fmt.Sprintf("reduce/%s/root=%d/n=%d", op, root, len(data)), n, data,
		func(entries []phaserEntry) (any, error) { return reduceEntries(op, entries) },
		func() float64 { return f.Reduce(len(c.group), n, c.world.cfg.ReduceGamma) })
	if err != nil {
		return nil, err
	}
	if c.rank != root {
		return nil, nil
	}
	return res.([]float64), nil
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

// Gather collects every rank's buffer on root, indexed by rank; nil is
// returned on non-root ranks. Buffers may have different lengths
// (gatherv semantics).
func (c *Comm) Gather(root int, data []float64) ([][]float64, error) {
	c.unreplayable("mpi.Gather")
	if err := c.checkPeer(root); err != nil {
		return nil, err
	}
	f := c.world.collectiveFabric(c.group)
	n := float64Bytes(len(data))
	res, err := c.rendezvous(fmt.Sprintf("gather/root=%d", root), n, data,
		func(entries []phaserEntry) (any, error) {
			out := make([][]float64, len(entries))
			for i, e := range entries {
				v, _ := e.value.([]float64)
				out[i] = append([]float64(nil), v...)
			}
			return out, nil
		},
		func() float64 { return f.Gather(len(c.group), n) })
	if err != nil {
		return nil, err
	}
	if c.rank != root {
		return nil, nil
	}
	return res.([][]float64), nil
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

// Alltoall sends chunks[j] to rank j and returns the chunks received,
// indexed by source rank. Every rank must pass exactly Size() chunks.
func (c *Comm) Alltoall(chunks [][]float64) ([][]float64, error) {
	c.unreplayable("mpi.Alltoall")
	p := len(c.group)
	if len(chunks) != p {
		return nil, fmt.Errorf("mpi: alltoall needs %d chunks, got %d", p, len(chunks))
	}
	var maxChunk, total int64
	for _, ch := range chunks {
		b := float64Bytes(len(ch))
		total += b
		if b > maxChunk {
			maxChunk = b
		}
	}
	f := c.world.collectiveFabric(c.group)
	res, err := c.rendezvous("alltoall", total, chunks,
		func(entries []phaserEntry) (any, error) {
			// matrix[src][dst]
			matrix := make([][][]float64, p)
			for i, e := range entries {
				v, ok := e.value.([][]float64)
				if !ok || len(v) != p {
					return nil, fmt.Errorf("mpi: alltoall rank %d supplied %d chunks, want %d", e.rank, len(v), p)
				}
				matrix[i] = v
			}
			return matrix, nil
		},
		func() float64 { return f.Alltoall(p, maxChunk) })
	if err != nil {
		return nil, err
	}
	matrix := res.([][][]float64)
	out := make([][]float64, p)
	for src := 0; src < p; src++ {
		out[src] = append([]float64(nil), matrix[src][c.rank]...)
	}
	return out, nil
}

// Scatter distributes root's chunks: rank i receives chunks[i]. Only
// the root's chunks argument is used; other ranks pass nil.
func (c *Comm) Scatter(root int, chunks [][]float64) ([]float64, error) {
	c.unreplayable("mpi.Scatter")
	if err := c.checkPeer(root); err != nil {
		return nil, err
	}
	f := c.world.collectiveFabric(c.group)
	var sendTotal int64
	for _, ch := range chunks {
		sendTotal += float64Bytes(len(ch))
	}
	var maxChunk int64
	res, err := c.rendezvous(fmt.Sprintf("scatter/root=%d", root), sendTotal, chunks,
		func(entries []phaserEntry) (any, error) {
			v, _ := entries[root].value.([][]float64)
			if len(v) != len(c.group) {
				return nil, fmt.Errorf("mpi: scatter root %d supplied %d chunks, want %d",
					root, len(v), len(c.group))
			}
			out := make([][]float64, len(v))
			for i, ch := range v {
				out[i] = append([]float64(nil), ch...)
				if b := float64Bytes(len(ch)); b > maxChunk {
					maxChunk = b
				}
			}
			return out, nil
		},
		func() float64 { return f.Bcast(len(c.group), maxChunk) })
	if err != nil {
		return nil, err
	}
	return res.([][]float64)[c.rank], nil
}

// ReduceScatter combines data element-wise across ranks and scatters
// the result: with n = len(data) divisible by Size(), rank i receives
// elements [i*n/p, (i+1)*n/p) of the reduction.
func (c *Comm) ReduceScatter(op Op, data []float64) ([]float64, error) {
	c.unreplayable("mpi.ReduceScatter")
	p := len(c.group)
	if len(data)%p != 0 {
		return nil, fmt.Errorf("mpi: reduce-scatter length %d not divisible by %d ranks", len(data), p)
	}
	f := c.world.collectiveFabric(c.group)
	n := float64Bytes(len(data))
	res, err := c.rendezvous(fmt.Sprintf("reducescatter/%s/n=%d", op, len(data)), n, data,
		func(entries []phaserEntry) (any, error) { return reduceEntries(op, entries) },
		func() float64 { return f.Reduce(p, n, c.world.cfg.ReduceGamma) })
	if err != nil {
		return nil, err
	}
	full := res.([]float64)
	chunk := len(full) / p
	return append([]float64(nil), full[c.rank*chunk:(c.rank+1)*chunk]...), nil
}

// Split partitions the communicator by color; ranks passing the same
// color form a new communicator ordered by key (ties broken by old
// rank). Every rank of c must call Split.
func (c *Comm) Split(color, key int) (*Comm, error) {
	c.unreplayable("mpi.Split")
	type ck struct{ color, key, rank int }
	res, err := c.rendezvous("split", 0, ck{color, key, c.rank},
		func(entries []phaserEntry) (any, error) {
			all := make([]ck, len(entries))
			for i, e := range entries {
				all[i] = e.value.(ck)
			}
			return all, nil
		},
		func() float64 { return c.world.collectiveFabric(c.group).Barrier(len(c.group)) })
	if err != nil {
		return nil, err
	}
	all := res.([]ck)
	var mine []ck
	for _, e := range all {
		if e.color == color {
			mine = append(mine, e)
		}
	}
	sort.Slice(mine, func(i, j int) bool {
		if mine[i].key != mine[j].key {
			return mine[i].key < mine[j].key
		}
		return mine[i].rank < mine[j].rank
	})
	group := make([]int, len(mine))
	newRank := -1
	for i, e := range mine {
		group[i] = c.global(e.rank)
		if e.rank == c.rank {
			newRank = i
		}
	}
	// Identify the new communicator by its exact membership so distinct
	// splits never share a phaser.
	id := fmt.Sprintf("%s/split(c=%d)%v", c.id, color, group)
	return &Comm{world: c.world, id: id, rank: newRank, group: group}, nil
}
