package mpi

import (
	"errors"
	"strings"
	"testing"
	"time"

	"fibersim/internal/fault"
)

func TestDeadlockErrorDumpsBothRanks(t *testing.T) {
	// Head-to-head deadlock: both ranks wait for tag 7, which nobody
	// sends.
	_, err := Run(Config{Ranks: 2}, func(c *Comm) error {
		_, err := c.Sendrecv(1-c.Rank(), 1, nil, 1-c.Rank(), 7)
		return err
	})
	if err == nil {
		t.Fatal("deadlocked pair returned nil")
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("deadlock error does not unwrap to ErrDeadlock: %v", err)
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeadlockError, got %T: %v", err, err)
	}
	if len(de.Blocked) != 2 {
		t.Fatalf("dump has %d blocked ops, want 2: %v", len(de.Blocked), de)
	}
	seen := map[int]BlockedOp{}
	for _, b := range de.Blocked {
		seen[b.Rank] = b
	}
	for rank, wantPeer := range map[int]int{0: 1, 1: 0} {
		b, ok := seen[rank]
		if !ok {
			t.Fatalf("rank %d missing from dump: %v", rank, de)
		}
		if b.Op != "recv" || b.Peer != wantPeer || b.Tag != 7 {
			t.Errorf("rank %d blocked op = %+v, want recv peer=%d tag=7", rank, b, wantPeer)
		}
	}
	msg := err.Error()
	for _, want := range []string{"deadlock", "rank 0: recv peer=1 tag=7", "rank 1: recv peer=0 tag=7"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error text missing %q:\n%s", want, msg)
		}
	}
}

func TestDeadlockReleasesOtherBlockedRanks(t *testing.T) {
	// Three ranks hang in different ops; the park that completes the
	// deadlock must abort the world so the others return promptly with
	// AbortError.
	start := time.Now()
	_, err := Run(Config{Ranks: 3}, func(c *Comm) error {
		if c.Rank() == 2 {
			return c.Barrier() // nobody else joins
		}
		_, err := c.Sendrecv(1-c.Rank(), 1, nil, 1-c.Rank(), 9)
		return err
	})
	if err == nil {
		t.Fatal("hung world returned nil")
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeadlockError, got %v", err)
	}
	if len(de.Blocked) != 3 {
		t.Fatalf("dump has %d blocked ops, want 3: %v", len(de.Blocked), de)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("world took %v to unwind; abort should release everyone at once", elapsed)
	}
}

func TestCollectiveDeadlockNamesOperation(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(c *Comm) error {
		if c.Rank() == 1 {
			return nil // skips the collective
		}
		_, err := c.AllreduceScalar(OpSum, 1)
		return err
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeadlockError, got %v", err)
	}
	if len(de.Blocked) != 1 || !strings.HasPrefix(de.Blocked[0].Op, "allreduce") {
		t.Fatalf("dump = %v, want rank 0 blocked in allreduce", de)
	}
}

func TestScheduledCrashAbortsWorld(t *testing.T) {
	inj, err := fault.NewInjector(&fault.Schedule{
		Crashes: []fault.Crash{{Rank: 1, Time: 1e-6}},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Ranks: 4}
	cfg.Fault = inj
	start := time.Now()
	_, err = Run(cfg, func(c *Comm) error {
		for i := 0; i < 100; i++ {
			c.Clock().Advance(1e-6, 0)
			if _, err := c.AllreduceScalar(OpSum, 1); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		t.Fatal("crashed world returned nil")
	}
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CrashError as root cause, got %v", err)
	}
	if ce.Rank != 1 {
		t.Fatalf("crashed rank = %d, want 1", ce.Rank)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("crash took %v to unwind; the abort must release blocked partners, not hang", elapsed)
	}
	if got := inj.Counters().Crashes; got != 1 {
		t.Fatalf("injector counted %d crashes, want 1", got)
	}
}

func TestCrashedRankPartnersSeeAbort(t *testing.T) {
	inj, err := fault.NewInjector(&fault.Schedule{
		Crashes: []fault.Crash{{Rank: 0, Time: 0}},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Ranks: 2}
	cfg.Fault = inj
	errs := make([]error, 2)
	_, _ = Run(cfg, func(c *Comm) error {
		// Rank 0's crash fires at its first MPI operation (clock 0 >= 0).
		_, errs[c.Rank()] = c.Sendrecv(1-c.Rank(), 1, []float64{1}, 1-c.Rank(), 1)
		return errs[c.Rank()]
	})
	var ce *CrashError
	if !errors.As(errs[0], &ce) {
		t.Fatalf("crashed rank error = %v, want *CrashError", errs[0])
	}
	if !errors.Is(errs[1], ErrAborted) {
		t.Fatalf("survivor error = %v, want ErrAborted", errs[1])
	}
	if !errors.As(errs[1], &ce) {
		t.Fatalf("survivor error %v does not expose the CrashError cause", errs[1])
	}
}

func TestLinkFaultSlowsCrossNodeMessages(t *testing.T) {
	run := func(inj *fault.Injector) float64 {
		cfg := Config{Ranks: 2}
		cfg.RanksPerNode = 1 // rank r on node r
		cfg.Fault = inj
		res, err := Run(cfg, func(c *Comm) error {
			_, err := c.Sendrecv(1-c.Rank(), 1, make([]float64, 4096), 1-c.Rank(), 1)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.MaxTime()
	}
	clean := run(nil)
	inj, err := fault.NewInjector(&fault.Schedule{
		Links: []fault.LinkFault{{NodeA: 0, NodeB: 1, Start: 0, End: 1e9, Factor: 10}},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	degraded := run(inj)
	if degraded <= clean {
		t.Fatalf("degraded link makespan %g not above clean %g", degraded, clean)
	}
	if c := inj.Counters(); c.DegradedSends != 2 {
		t.Fatalf("DegradedSends = %d, want 2", c.DegradedSends)
	}
}

func TestFaultCheckNilInjectorIsFree(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(c *Comm) error {
		if err := c.FaultCheck(); err != nil {
			return err
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
