package common

import (
	"sync"

	"fibersim/internal/core"
	"fibersim/internal/mpi"
	"fibersim/internal/omp"
)

// LaunchApp is Launch for an app's run. An app's numerics depend only
// on its functional inputs (app, procs, threads, size, seed); the model
// axes (machine, placement, compiler) change only what each operation
// costs. So body must be a function of the functional inputs alone,
// write the app's outputs into *out (a struct of scalars, written by
// one rank) and time phases with Env spans rather than the clock. The
// first launch of an input executes body and records every rank's
// model-visible operations; a later launch of the same input replays
// the records through the same Env, Team and Comm code, with nil loop
// bodies and data-free payloads, under its own model axes, and
// restores *out. Launches with a fault schedule always execute and are
// never recorded, since faults abort numerics midway.
func LaunchApp[T any](app string, cfg RunConfig, out *T, body func(env *Env) error) (*RunStats, error) {
	cfg = cfg.withDefaults()
	if cfg.Fault != nil {
		return launch(cfg, body, nil)
	}
	key := replayKey{app: app, procs: cfg.Procs, threads: cfg.Threads, size: cfg.Size, seed: cfg.Seed}
	if rec := recordings.get(key); rec != nil {
		res, err := launch(cfg, func(env *Env) error { return rec.logs[env.Rank()].replay(env) }, nil)
		if err == nil {
			*out = rec.out.(T)
		}
		return res, err
	}
	logs := make([]*opLog, cfg.Procs)
	for r := range logs {
		logs[r] = &opLog{}
	}
	res, err := launch(cfg, body, logs)
	if err != nil {
		return res, err
	}
	for _, l := range logs {
		if l.unreplayable != "" {
			return res, nil
		}
	}
	recordings.put(key, &recording{logs: logs, out: *out})
	return res, nil
}

// opKind tags one entry of a rank program.
type opKind uint8

const (
	opCharge opKind = iota
	opRegion
	opSendrecv
	opCollective
	opSpanBegin
	opSpanEnd
)

// op is one logged operation; its kind says what the fields hold:
//
//	charge:     a kernel index, b thread cap (0 for none), x iterations
//	region:     a schedule kind, b chunk, n iterations
//	sendrecv:   a dst, b send tag, c src, d recv tag, n length
//	collective: a collective kind, b reduction operator, n length
//	span:       a name index
type op struct {
	kind       opKind
	a, b, c, d int
	n          int
	x          float64
}

// opLog is one rank's program as the model sees it, in program order.
// Kernels and span names are interned, so an entry is a few words and
// one slice holds them all. It implements omp.Log and mpi.Log, and only
// the rank's own goroutine writes it; a nil log records nothing.
type opLog struct {
	ops     []op
	kernels []core.Kernel
	names   []string

	// unreplayable names the first operation a replay could not
	// repeat; a log that has one is not kept.
	unreplayable string
}

// intern returns v's index in *table, appending it on first use. The
// tables hold the few kernels and span names of one app.
func intern[T comparable](table *[]T, v T) int {
	for i, have := range *table {
		if have == v {
			return i
		}
	}
	*table = append(*table, v)
	return len(*table) - 1
}

func (l *opLog) charge(k core.Kernel, iters float64, threads int) {
	if l != nil {
		l.ops = append(l.ops, op{kind: opCharge, a: intern(&l.kernels, k), b: threads, x: iters})
	}
}

func (l *opLog) span(name string, end bool) {
	if l == nil {
		return
	}
	kind := opSpanBegin
	if end {
		kind = opSpanEnd
	}
	l.ops = append(l.ops, op{kind: kind, a: intern(&l.names, name)})
}

// Region implements omp.Log.
func (l *opLog) Region(s omp.Schedule, n int) {
	l.ops = append(l.ops, op{kind: opRegion, a: int(s.Kind), b: s.Chunk, n: n})
}

// Sendrecv implements mpi.Log.
func (l *opLog) Sendrecv(dst, sendTag, src, recvTag, n int) {
	l.ops = append(l.ops, op{kind: opSendrecv, a: dst, b: sendTag, c: src, d: recvTag, n: n})
}

// Collective implements mpi.Log.
func (l *opLog) Collective(kind mpi.Collective, red mpi.Op, n int) {
	l.ops = append(l.ops, op{kind: opCollective, a: int(kind), b: int(red), n: n})
}

// Unreplayable implements omp.Log.
func (l *opLog) Unreplayable(op string) {
	if l.unreplayable == "" {
		l.unreplayable = op
	}
}

// replay repeats the rank program on env: every operation goes through
// the Env, Team and Comm entry points the app called, with nil loop
// bodies and data-free payloads, so the model re-times it.
func (l *opLog) replay(env *Env) error {
	for _, o := range l.ops {
		var err error
		switch o.kind {
		case opCharge:
			err = env.charge(l.kernels[o.a], o.x, o.b)
		case opRegion:
			env.Team.ParallelRange(omp.Schedule{Kind: omp.ScheduleKind(o.a), Chunk: o.b}, o.n, nil, nil)
		case opSendrecv:
			err = env.Comm.ReplaySendrecv(o.a, o.b, o.c, o.d, o.n)
		case opCollective:
			err = env.Comm.ReplayCollective(mpi.Collective(o.a), mpi.Op(o.b), o.n)
		case opSpanBegin:
			env.BeginSpan(l.names[o.a])
		case opSpanEnd:
			env.EndSpan(l.names[o.a])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// replayKey is a launch's functional inputs.
type replayKey struct {
	app            string
	procs, threads int
	size           Size
	seed           int64
}

// recording is what a replay needs: every rank's program and the app's
// outputs.
type recording struct {
	logs []*opLog
	out  any
	used uint64 // cache tick of the last get or put, under the cache lock
}

// cacheCapacity bounds how many functional inputs the process keeps
// recordings of; the least recently used is evicted first.
const cacheCapacity = 64

// recordingCache is the process-wide store of recordings. Concurrent
// misses on one key may both execute; the later put wins.
type recordingCache struct {
	mu      sync.Mutex
	tick    uint64
	entries map[replayKey]*recording
}

var recordings = &recordingCache{entries: map[replayKey]*recording{}}

func (c *recordingCache) get(k replayKey) *recording {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec := c.entries[k]
	if rec != nil {
		c.tick++
		rec.used = c.tick
	}
	return rec
}

func (c *recordingCache) put(k replayKey, rec *recording) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[k]; !ok && len(c.entries) >= cacheCapacity {
		var oldest replayKey
		var least uint64
		for key, e := range c.entries {
			if least == 0 || e.used < least {
				oldest, least = key, e.used
			}
		}
		delete(c.entries, oldest)
	}
	c.tick++
	rec.used = c.tick
	c.entries[k] = rec
}
