package mpi

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"fibersim/internal/vtime"
)

func TestRunNeedsRanks(t *testing.T) {
	if _, err := Run(Config{Ranks: 0}, func(*Comm) error { return nil }); err == nil {
		t.Fatal("Run with 0 ranks must fail")
	}
}

func TestRankAndSize(t *testing.T) {
	seen := make([]bool, 4)
	_, err := Run(Config{Ranks: 4}, func(c *Comm) error {
		if c.Size() != 4 {
			t.Errorf("Size = %d", c.Size())
		}
		seen[c.Rank()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, ok := range seen {
		if !ok {
			t.Errorf("rank %d never ran", r)
		}
	}
}

func TestSendRecv(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(c *Comm) error {
		peer := 1 - c.Rank()
		got, err := c.Sendrecv(peer, 7, []float64{float64(c.Rank()), 2, 3}, peer, 7)
		if err != nil {
			return err
		}
		if len(got) != 3 || got[0] != float64(peer) || got[2] != 3 {
			t.Errorf("rank %d received %v", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendCopiesData: rank 0 overwrites its send buffer once its
// Sendrecv returns, and the barrier orders that write before rank 1
// reads what it received.
func TestSendCopiesData(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(c *Comm) error {
		buf := []float64{42}
		got, err := c.Sendrecv(1-c.Rank(), 0, buf, 1-c.Rank(), 0)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			buf[0] = 0
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 1 && got[0] != 42 {
			t.Errorf("Sendrecv did not copy: got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMessageOrderingSameTag queues two messages with the same source
// and tag before their receiver looks for them.
func TestMessageOrderingSameTag(t *testing.T) {
	// Each rank's Sendrecvs in order, as {dst, sendTag, src, recvTag}.
	// Rank 1 first waits for tag 9, which rank 0 sends only after both
	// tag-0 messages; rank 0 receives from rank 2 until then, so it
	// never waits on rank 1.
	programs := [][][4]int{
		{{1, 0, 2, 1}, {1, 0, 2, 2}, {1, 9, 1, 3}},
		{{2, 4, 0, 9}, {0, 3, 0, 0}, {2, 5, 0, 0}},
		{{0, 1, 1, 4}, {0, 2, 1, 5}},
	}
	_, err := Run(Config{Ranks: 3}, func(c *Comm) error {
		var tag0 []float64
		for i, x := range programs[c.Rank()] {
			got, err := c.Sendrecv(x[0], x[1], []float64{float64(i)}, x[2], x[3])
			if err != nil {
				return err
			}
			if x[3] == 0 {
				tag0 = append(tag0, got[0])
			}
		}
		if c.Rank() == 1 && !reflect.DeepEqual(tag0, []float64{0, 1}) {
			t.Errorf("same-tag messages received as %v, want [0 1]", tag0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTagSelectivity: rank 1 asks for tag 2 first, although rank 0
// sent tag 1 before it. Whether tag 1 is queued when rank 1 looks or
// arrives while it is parked, the receive must skip it.
func TestTagSelectivity(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(c *Comm) error {
		if c.Rank() == 0 {
			if _, err := c.Sendrecv(1, 1, []float64{1}, 1, 10); err != nil {
				return err
			}
			_, err := c.Sendrecv(1, 2, []float64{2}, 1, 11)
			return err
		}
		got2, err := c.Sendrecv(0, 10, nil, 0, 2)
		if err != nil {
			return err
		}
		got1, err := c.Sendrecv(0, 11, nil, 0, 1)
		if err != nil {
			return err
		}
		if got2[0] != 2 || got1[0] != 1 {
			t.Errorf("tag selection wrong: %v %v", got1, got2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvOnMissingMessageDeadlocks(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(c *Comm) error {
		if c.Rank() == 1 {
			_, err := c.Sendrecv(0, 1, nil, 0, 99)
			return err
		}
		return nil
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
}

func TestInvalidRankErrors(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(c *Comm) error {
		if _, err := c.Sendrecv(5, 0, nil, 1-c.Rank(), 0); err == nil {
			t.Error("Sendrecv to invalid rank should error")
		}
		if _, err := c.Sendrecv(1-c.Rank(), 0, nil, -7, 0); err == nil {
			t.Error("Sendrecv from invalid rank should error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPanicBecomesError(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic in a rank must surface as error")
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	res, err := Run(Config{Ranks: 4}, func(c *Comm) error {
		// Rank r computes r seconds, then everyone waits at the barrier.
		c.Clock().Advance(float64(c.Rank()), vtime.Compute)
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Times[3]
	for r, tm := range res.Times {
		if math.Abs(tm-want) > 1e-12 {
			t.Errorf("rank %d time %g, want %g", r, tm, want)
		}
	}
	if want < 3 {
		t.Errorf("barrier time %g below slowest rank's 3s", want)
	}
}

func TestAllreduce(t *testing.T) {
	_, err := Run(Config{Ranks: 4}, func(c *Comm) error {
		all, err := c.Allreduce(OpMax, []float64{float64(c.Rank()), 1})
		if err != nil {
			return err
		}
		if all[0] != 3 || all[1] != 1 {
			t.Errorf("Allreduce max got %v", all)
		}
		sum, err := c.AllreduceScalar(OpSum, float64(c.Rank()+10))
		if err != nil {
			return err
		}
		if sum != 46 {
			t.Errorf("AllreduceScalar sum = %g, want 46", sum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceLengthMismatch(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(c *Comm) error {
		data := make([]float64, c.Rank()+1) // ranks pass different lengths
		_, err := c.Allreduce(OpSum, data)
		return err
	})
	if err == nil {
		t.Fatal("length-mismatched Allreduce must error")
	}
}

func TestMismatchedCollectivesDetected(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Barrier()
		}
		_, err := c.Allreduce(OpSum, []float64{1})
		return err
	})
	if err == nil {
		t.Fatal("mismatched collectives must error")
	}
}

func TestAllgather(t *testing.T) {
	_, err := Run(Config{Ranks: 3}, func(c *Comm) error {
		mine := make([]float64, c.Rank()+1) // ragged contributions
		for i := range mine {
			mine[i] = float64(c.Rank() * 10)
		}
		all, err := c.Allgather(mine)
		if err != nil {
			return err
		}
		for r := 0; r < 3; r++ {
			if len(all[r]) != r+1 || all[r][0] != float64(r*10) {
				t.Errorf("Allgather[%d] = %v", r, all[r])
			}
		}
		// Mutation isolation between ranks.
		all[0][0] = -1
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualTimeP2P(t *testing.T) {
	// One 8 MiB message across nodes, answered by an empty one: the
	// receive completes no earlier than the fabric transfer time.
	cfg := Config{Ranks: 2}
	cfg.RanksPerNode = 1 // force inter-node
	n := 1 << 20         // 1Mi float64 = 8 MiB
	res, err := Run(cfg, func(c *Comm) error {
		var data []float64
		if c.Rank() == 0 {
			data = make([]float64, n)
		}
		_, err := c.Sendrecv(1-c.Rank(), 0, data, 1-c.Rank(), 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	minTransfer := float64(8*n) / 6.8e9 // tofud bandwidth
	if res.Times[1] < minTransfer {
		t.Errorf("receiver time %g below transfer time %g", res.Times[1], minTransfer)
	}
	if res.Times[0] > res.Times[1] {
		t.Errorf("eager sender of the large message should finish first: %g vs %g", res.Times[0], res.Times[1])
	}
}

func TestIntraNodeFasterThanInterNode(t *testing.T) {
	timeFor := func(perNode int) float64 {
		cfg := Config{Ranks: 2}
		cfg.RanksPerNode = perNode
		res, err := Run(cfg, func(c *Comm) error {
			_, err := c.Sendrecv(1-c.Rank(), 0, make([]float64, 4096), 1-c.Rank(), 0)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.MaxTime()
	}
	if timeFor(2) >= timeFor(1) {
		t.Error("intra-node message should be faster than inter-node")
	}
}

func TestResultHelpers(t *testing.T) {
	res, err := Run(Config{Ranks: 3}, func(c *Comm) error {
		c.Clock().Advance(float64(c.Rank()+1), vtime.Compute)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxTime() != 3 {
		t.Errorf("MaxTime = %g", res.MaxTime())
	}
	if s := res.Series(); s.Len() != 3 || s.Max() != 3 {
		t.Errorf("Series wrong: %d %g", s.Len(), s.Max())
	}
	if b := res.Breakdown(); b.Get(vtime.Compute) != 3 {
		t.Errorf("Breakdown = %v", b)
	}
}

func TestOpString(t *testing.T) {
	for _, o := range []Op{OpSum, OpMax} {
		if o.String() == "" {
			t.Error("empty op name")
		}
	}
	if Op(9).String() == "" {
		t.Error("unknown op should still print")
	}
}

func TestAllreduceMatchesSerialFoldProperty(t *testing.T) {
	// Property: Allreduce(sum) over p ranks equals the serial sum of the
	// same per-rank vectors, for random vectors.
	f := func(seed uint32) bool {
		p := int(seed%4) + 2
		n := int(seed%7) + 1
		vecs := make([][]float64, p)
		x := float64(seed%1000) / 17.0
		for r := range vecs {
			vecs[r] = make([]float64, n)
			for i := range vecs[r] {
				x = math.Mod(x*1.37+0.71, 13)
				vecs[r][i] = x
			}
		}
		want := make([]float64, n)
		for _, v := range vecs {
			for i, e := range v {
				want[i] += e
			}
		}
		ok := true
		_, err := Run(Config{Ranks: p}, func(c *Comm) error {
			got, err := c.Allreduce(OpSum, vecs[c.Rank()])
			if err != nil {
				return err
			}
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					ok = false
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCollectiveAdvancesAllClocksEqually(t *testing.T) {
	res, err := Run(Config{Ranks: 4}, func(c *Comm) error {
		c.Clock().Advance(float64(4-c.Rank()), vtime.Compute)
		_, err := c.Allreduce(OpSum, []float64{1})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 4; r++ {
		if math.Abs(res.Times[r]-res.Times[0]) > 1e-12 {
			t.Errorf("clocks diverge after collective: %v", res.Times)
		}
	}
}

func TestCommStats(t *testing.T) {
	res, err := Run(Config{Ranks: 4}, func(c *Comm) error {
		if c.Rank() < 2 {
			if _, err := c.Sendrecv(1-c.Rank(), 0, []float64{1, 2}, 1-c.Rank(), 0); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		_, err := c.Allreduce(OpSum, []float64{1})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.Sends != 2 || res.Comm.SendBytes != 32 {
		t.Errorf("sends=%d bytes=%d, want 2/32", res.Comm.Sends, res.Comm.SendBytes)
	}
	if res.Comm.Collectives["barrier"] != 4 || res.Comm.Collectives["allreduce"] != 4 {
		t.Errorf("collectives = %v", res.Comm.Collectives)
	}
	s := res.Comm.String()
	for _, want := range []string{"sends=2", "barrier=4", "allreduce=4"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

func TestTracing(t *testing.T) {
	cfg := Config{Ranks: 2}
	cfg.TraceCapacity = 64
	res, err := Run(cfg, func(c *Comm) error {
		if _, err := c.Sendrecv(1-c.Rank(), 0, []float64{1}, 1-c.Rank(), 0); err != nil {
			return err
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 2 {
		t.Fatalf("want 2 trace logs, got %d", len(res.Traces))
	}
	names := map[string]bool{}
	for _, l := range res.Traces {
		for _, ev := range l.Events() {
			names[ev.Name] = true
			if ev.End < ev.Start {
				t.Errorf("event %q backwards", ev.Name)
			}
		}
	}
	if !names["send"] || !names["recv"] || !names["barrier"] {
		t.Errorf("missing expected events: %v", names)
	}
}

func TestTracingOffByDefault(t *testing.T) {
	res, err := Run(Config{Ranks: 2}, func(c *Comm) error {
		c.Trace("x", "kernel", 0, 1) // must be a harmless no-op
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Traces != nil {
		t.Error("traces should be nil when disabled")
	}
}
