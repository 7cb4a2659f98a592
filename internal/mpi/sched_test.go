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
// deadlock, however long it takes. Rank 0 first receives a message
// from each other rank, so with one slot all three are parked while it
// computes.
func TestSlowRankIsNotDeadlock(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("gomaxprocs%d", procs), func(t *testing.T) {
			withGOMAXPROCS(procs, func() {
				_, err := runWithin(t, time.Minute, Config{Ranks: 4}, func(c *Comm) error {
					if c.Rank() == 0 {
						for src := 1; src < 4; src++ {
							if _, err := c.Recv(src, 1); err != nil {
								return err
							}
						}
						time.Sleep(200 * time.Millisecond)
						if err := c.Send(1, 0, nil); err != nil {
							return err
						}
					} else {
						if err := c.Send(0, 1, nil); err != nil {
							return err
						}
						if c.Rank() == 1 {
							if _, err := c.Recv(0, 0); err != nil {
								return err
							}
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
// and Run returns the failed rank's own error. Rank 0 first receives a
// message from each other rank, so with one slot both are parked when
// it fails and only the check at its return can see the deadlock.
func TestFailedRankReleasesParkedRanks(t *testing.T) {
	for _, fail := range []string{"error", "panic"} {
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s-gomaxprocs%d", fail, procs), func(t *testing.T) {
				errs := make([]error, 3)
				var err error
				withGOMAXPROCS(procs, func() {
					_, err = runWithin(t, 10*time.Second, Config{Ranks: 3}, func(c *Comm) error {
						switch c.Rank() {
						case 0:
							for src := 1; src <= 2; src++ {
								if _, err := c.Recv(src, 1); err != nil {
									return err
								}
							}
							if fail == "panic" {
								panic("rank 0 gave up")
							}
							return errors.New("rank 0 gave up")
						case 1:
							if err := c.Send(0, 1, nil); err != nil {
								return err
							}
							_, errs[1] = c.Recv(0, 5)
						case 2:
							if err := c.Send(0, 1, nil); err != nil {
								return err
							}
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

// TestWildcardReceiveWakesOnlyOnMatch parks a receive on a mailbox and
// posts to it: a post that does not match leaves the receive asleep
// and queued, and the first matching post marks the rank runnable,
// wakes it and hands the message over.
func TestWildcardReceiveWakesOnlyOnMatch(t *testing.T) {
	for _, tc := range []struct {
		src, tag  int
		miss, hit *message // miss is nil when every post matches
	}{
		{AnySource, AnyTag, nil, &message{src: 2, tag: 9}},
		{AnySource, 3, &message{src: 1, tag: 4}, &message{src: 2, tag: 3}},
		{1, AnyTag, &message{src: 2, tag: 3}, &message{src: 1, tag: 7}},
		{1, 3, &message{src: 1, tag: 4}, &message{src: 1, tag: 3}},
	} {
		t.Run(fmt.Sprintf("src%d-tag%d", tc.src, tc.tag), func(t *testing.T) {
			w := &World{boxes: []*mailbox{{}}, wake: []chan struct{}{make(chan struct{}, 1)}}
			mb := w.boxes[0]
			mb.parked, mb.src, mb.tag = true, tc.src, tc.tag
			if tc.miss != nil {
				w.deliver(0, tc.miss)
				if len(w.wake[0]) != 0 || w.active.Load() != 0 || !mb.parked || len(mb.queue) != 1 {
					t.Fatalf("non-matching post %+v: wake=%d active=%d parked=%v queued=%d, want the receive asleep and the post queued",
						*tc.miss, len(w.wake[0]), w.active.Load(), mb.parked, len(mb.queue))
				}
			}
			w.deliver(0, tc.hit)
			if len(w.wake[0]) != 1 || w.active.Load() != 1 || mb.parked || mb.got != tc.hit {
				t.Fatalf("matching post: wake=%d active=%d parked=%v got=%v",
					len(w.wake[0]), w.active.Load(), mb.parked, mb.got)
			}
		})
	}
}

// TestCollectiveStageExcludesPark: the collective self-profile stage
// is host work, not waiting. With one slot, rank 0 is parked in the
// Allreduce while rank 1 moves the injected clock an hour ahead before
// arriving; none of that hour may be charged to the stage.
func TestCollectiveStageExcludesPark(t *testing.T) {
	base := time.Unix(1700000000, 0)
	var ticks, jump atomic.Int64
	cost := obs.NewCostRecorder(func() time.Time {
		return base.Add(time.Duration(ticks.Add(1))*time.Microsecond + time.Duration(jump.Load()))
	})
	withGOMAXPROCS(1, func() {
		_, err := runWithin(t, 10*time.Second, Config{Ranks: 2, Cost: cost}, func(c *Comm) error {
			if c.Rank() == 0 {
				if err := c.Send(1, 0, nil); err != nil {
					return err
				}
			} else {
				if _, err := c.Recv(0, 0); err != nil {
					return err
				}
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
