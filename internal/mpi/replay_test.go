package mpi

import (
	"reflect"
	"testing"

	"fibersim/internal/vtime"
)

// entry is one call a testLog received.
type entry struct {
	op                         string
	kind                       Collective
	red                        Op
	dst, sendTag, src, recvTag int
	n                          int
}

// testLog records what a Comm reports, in order.
type testLog struct{ entries []entry }

func (l *testLog) Sendrecv(dst, sendTag, src, recvTag, n int) {
	l.entries = append(l.entries, entry{op: "sendrecv", dst: dst, sendTag: sendTag, src: src, recvTag: recvTag, n: n})
}

func (l *testLog) Collective(kind Collective, red Op, n int) {
	l.entries = append(l.entries, entry{op: "collective", kind: kind, red: red, n: n})
}

// program is a halo exchange plus the three logged collectives, with
// rank-dependent compute so the clocks disagree before each round.
func program(c *Comm) error {
	c.Clock().Advance(float64(c.Rank()+1)*1e-6, vtime.Compute)
	right, left := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
	if _, err := c.Sendrecv(right, 3, make([]float64, 100*(c.Rank()+1)), left, 3); err != nil {
		return err
	}
	if _, err := c.AllreduceScalar(OpMax, float64(c.Rank())); err != nil {
		return err
	}
	c.Clock().Advance(2e-6, vtime.Compute)
	if _, err := c.Allgather(make([]float64, 16)); err != nil {
		return err
	}
	return c.Barrier()
}

// TestLogReplayMatchesRun logs every rank of a run and replays the logs
// data-free in a fresh world: clocks, breakdowns and comm statistics
// must equal the logged run's.
func TestLogReplayMatchesRun(t *testing.T) {
	const ranks = 4
	logs := make([]*testLog, ranks)
	want, err := Run(Config{Ranks: ranks}, func(c *Comm) error {
		logs[c.Rank()] = &testLog{}
		c.LogTo(logs[c.Rank()])
		return program(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	wantLog := []entry{
		{op: "sendrecv", dst: 1, sendTag: 3, src: 3, recvTag: 3, n: 100},
		{op: "collective", kind: CollAllreduce, red: OpMax, n: 1},
		{op: "collective", kind: CollAllgather, n: 16},
		{op: "collective", kind: CollBarrier},
	}
	if !reflect.DeepEqual(logs[0].entries, wantLog) {
		t.Fatalf("rank 0 logged %+v, want %+v", logs[0].entries, wantLog)
	}
	got, err := Run(Config{Ranks: ranks}, func(c *Comm) error {
		c.Clock().Advance(float64(c.Rank()+1)*1e-6, vtime.Compute)
		for i, e := range logs[c.Rank()].entries {
			if i == 2 {
				c.Clock().Advance(2e-6, vtime.Compute)
			}
			var err error
			if e.op == "sendrecv" {
				err = c.ReplaySendrecv(e.dst, e.sendTag, e.src, e.recvTag, e.n)
			} else {
				err = c.ReplayCollective(e.kind, e.red, e.n)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Times, want.Times) || !reflect.DeepEqual(got.Breakdowns, want.Breakdowns) ||
		!reflect.DeepEqual(got.Comm, want.Comm) {
		t.Errorf("replay %+v, logged run %+v", got, want)
	}
}
