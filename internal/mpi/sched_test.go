package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fibersim/internal/obs"
)

// withGOMAXPROCS runs f with GOMAXPROCS set to p, which fixes the slot
// count of every world f starts.
func withGOMAXPROCS(p int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
	f()
}

// runWithin is Run that fails the test instead of hanging when the
// world does not finish within d.
func runWithin(t *testing.T, d time.Duration, cfg Config, body func(*Comm) error) (*Result, error) {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Run(cfg, body)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(d):
		t.Fatalf("world of %d ranks still running after %v", cfg.Ranks, d)
		return nil, nil
	}
}

// TestSendrecvRingDeadlockFree runs a Sendrecv ring plus an
// AllreduceScalar per round and counts the rank bodies computing at
// once: never more than the world's min(ranks, GOMAXPROCS) slots.
func TestSendrecvRingDeadlockFree(t *testing.T) {
	for _, tc := range []struct{ ranks, rounds, procs int }{
		{8, 1, 1}, {8, 20, 2}, {8, 20, 4}, {3, 20, 4},
		{48, 200, 1}, {48, 200, 2}, {48, 200, 4},
	} {
		t.Run(fmt.Sprintf("%dranks-%drounds-gomaxprocs%d", tc.ranks, tc.rounds, tc.procs), func(t *testing.T) {
			var computing, peak atomic.Int64
			compute := func() {
				n := computing.Add(1)
				for m := peak.Load(); n > m && !peak.CompareAndSwap(m, n); m = peak.Load() {
				}
				runtime.Gosched() // let any rank without a slot overlap
				computing.Add(-1)
			}
			p := tc.ranks
			withGOMAXPROCS(tc.procs, func() {
				_, err := runWithin(t, time.Minute, Config{Ranks: p}, func(c *Comm) error {
					right, left := (c.Rank()+1)%p, (c.Rank()+p-1)%p
					for i := 0; i < tc.rounds; i++ {
						compute()
						got, err := c.Sendrecv(right, i, []float64{float64(c.Rank())}, left, i)
						if err != nil {
							return err
						}
						if got[0] != float64(left) {
							return fmt.Errorf("rank %d got %g from left, want %d", c.Rank(), got[0], left)
						}
						compute()
						sum, err := c.AllreduceScalar(OpSum, 1)
						if err != nil {
							return err
						}
						if sum != float64(p) {
							return fmt.Errorf("rank %d: allreduce sum %g, want %d", c.Rank(), sum, p)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
			if slots := int64(min(tc.ranks, tc.procs)); peak.Load() > slots {
				t.Errorf("%d rank bodies computed at once, want at most %d slots", peak.Load(), slots)
			}
		})
	}
}

// TestSlowRankIsNotDeadlock parks every other rank, in a receive and
// in a collective, while one rank computes for longer than any
// watchdog a test would set: a rank that is running is never a
// deadlock, however long it takes.
func TestSlowRankIsNotDeadlock(t *testing.T) {
	// Each rank's Sendrecvs before the barrier, as {dst, sendTag, src,
	// recvTag}; rank 0 computes after its first two. A rank keeps its
	// slot from its last post into its wait, so with one slot, once
	// rank 0 holds the tag-1 messages of ranks 1 and 2 it computes
	// alone: rank 1 waits for tag 0, which rank 0 sends only after
	// computing, and rank 2 is in the barrier. Rank 2 takes tag 22
	// before tag 21, so its last receive finds tag 21 queued and does
	// not park.
	programs := [][][4]int{
		{{2, 21, 1, 1}, {2, 22, 2, 1}, {1, 0, 2, 31}},
		{{0, 1, 0, 0}},
		{{0, 31, 0, 22}, {0, 1, 0, 21}},
	}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("gomaxprocs%d", procs), func(t *testing.T) {
			withGOMAXPROCS(procs, func() {
				_, err := runWithin(t, time.Minute, Config{Ranks: 3}, func(c *Comm) error {
					for i, x := range programs[c.Rank()] {
						if c.Rank() == 0 && i == 2 {
							time.Sleep(200 * time.Millisecond)
						}
						if _, err := c.Sendrecv(x[0], x[1], nil, x[2], x[3]); err != nil {
							return err
						}
					}
					return c.Barrier()
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestFailedRankReleasesParkedRanks: a rank that returns an error or
// panics while others are parked on it completes the deadlock. The
// parked ranks are released at once with the dump, which names them,
// and Run returns the failed rank's own error. With one slot both are
// parked when rank 0 fails, so only the check at its return can see the
// deadlock.
func TestFailedRankReleasesParkedRanks(t *testing.T) {
	// Each rank's Sendrecvs before its final wait, as {dst, sendTag,
	// src, recvTag}. A rank keeps its slot from its last post into its
	// final wait, so once rank 0 holds the tag-1 messages of ranks 1
	// and 2 it runs alone: rank 1 waits for tag 5, which nobody sends,
	// and rank 2 is in the barrier. Rank 2 takes tag 22 before tag 21,
	// so its last receive finds tag 21 queued and does not park.
	programs := [][][4]int{
		{{1, 40, 1, 1}, {2, 41, 2, 1}},
		{{2, 21, 0, 40}, {2, 22, 2, 31}},
		{{1, 31, 1, 22}, {0, 1, 1, 21}},
	}
	for _, fail := range []string{"error", "panic"} {
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s-gomaxprocs%d", fail, procs), func(t *testing.T) {
				errs := make([]error, 3)
				var err error
				withGOMAXPROCS(procs, func() {
					_, err = runWithin(t, 10*time.Second, Config{Ranks: 3}, func(c *Comm) error {
						for _, x := range programs[c.Rank()] {
							if _, err := c.Sendrecv(x[0], x[1], nil, x[2], x[3]); err != nil {
								return err
							}
						}
						switch c.Rank() {
						case 0:
							if fail == "panic" {
								panic("rank 0 gave up")
							}
							return errors.New("rank 0 gave up")
						case 1:
							_, errs[1] = c.Sendrecv(0, 1, nil, 0, 5)
						case 2:
							errs[2] = c.Barrier()
						}
						return nil
					})
				})
				if err == nil || !strings.Contains(err.Error(), "rank 0 gave up") {
					t.Fatalf("Run error = %v, want rank 0's own failure", err)
				}
				for r := 1; r <= 2; r++ {
					var de *DeadlockError
					if !errors.As(errs[r], &de) {
						t.Fatalf("rank %d error = %v, want the deadlock", r, errs[r])
					}
					if len(de.Blocked) != 2 || de.Blocked[0].Rank != 1 || de.Blocked[1].Rank != 2 {
						t.Fatalf("dump = %v, want ranks 1 and 2", de)
					}
					if b := de.Blocked[0]; b.Op != "recv" || b.Peer != 0 || b.Tag != 5 {
						t.Errorf("rank 1 blocked op = %+v, want recv peer=0 tag=5", b)
					}
					if b := de.Blocked[1]; b.Op != "barrier" {
						t.Errorf("rank 2 blocked op = %+v, want barrier", b)
					}
				}
			})
		}
	}
}

// TestParkedReceiveWakesOnlyOnMatch parks a receive for (src 1, tag 3)
// on a mailbox and posts to it: a post that misses by tag or by source
// leaves the receive asleep and queues the post, and a matching post
// marks the rank runnable, wakes it and hands the message over.
func TestParkedReceiveWakesOnlyOnMatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		post *message
		hit  bool
	}{
		{"miss-by-tag", &message{src: 1, tag: 4}, false},
		{"miss-by-source", &message{src: 2, tag: 3}, false},
		{"hit", &message{src: 1, tag: 3}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := &World{boxes: []*mailbox{{}}, wake: []chan struct{}{make(chan struct{}, 1)}}
			mb := w.boxes[0]
			mb.parked, mb.src, mb.tag = true, 1, 3
			w.deliver(0, tc.post)
			woken := len(w.wake[0]) == 1 && w.active.Load() == 1 && !mb.parked && mb.got == tc.post && len(mb.queue) == 0
			asleep := len(w.wake[0]) == 0 && w.active.Load() == 0 && mb.parked && mb.got == nil && len(mb.queue) == 1
			if tc.hit && !woken || !tc.hit && !asleep {
				t.Fatalf("post %+v: wake=%d active=%d parked=%v got=%v queued=%d, want woken=%v",
					*tc.post, len(w.wake[0]), w.active.Load(), mb.parked, mb.got, len(mb.queue), tc.hit)
			}
		})
	}
}

// TestCollectiveStageExcludesPark: the collective self-profile stage
// is host work, not waiting. With one slot, ranks 0 and 2 are parked in
// the Allreduce while rank 1 moves the injected clock an hour ahead
// before arriving; none of that hour may be charged to the stage.
func TestCollectiveStageExcludesPark(t *testing.T) {
	base := time.Unix(1700000000, 0)
	var ticks, jump atomic.Int64
	cost := obs.NewCostRecorder(func() time.Time {
		return base.Add(time.Duration(ticks.Add(1))*time.Microsecond + time.Duration(jump.Load()))
	})
	withGOMAXPROCS(1, func() {
		// Each rank's Sendrecvs as {dst, sendTag, src, recvTag}. Rank 0's
		// second receive takes rank 2's first message, queued before rank
		// 0's first receive completed, so rank 0 goes from releasing rank
		// 1 straight into the Allreduce and parks there before rank 1 can
		// run.
		programs := [][][4]int{
			{{2, 0, 2, 1}, {1, 0, 2, 0}},
			{{2, 0, 0, 0}},
			{{0, 0, 0, 0}, {0, 1, 1, 0}},
		}
		_, err := runWithin(t, 10*time.Second, Config{Ranks: 3, Cost: cost}, func(c *Comm) error {
			for _, x := range programs[c.Rank()] {
				if _, err := c.Sendrecv(x[0], x[1], nil, x[2], x[3]); err != nil {
					return err
				}
			}
			if c.Rank() == 1 {
				jump.Add(int64(time.Hour))
			}
			_, err := c.AllreduceScalar(OpSum, 1)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if got := cost.StageSeconds(obs.StageCollective); got <= 0 || got > 1e-3 {
		t.Errorf("collective stage = %gs, want the few steps of host work, not the hour rank 0 was parked", got)
	}
}
