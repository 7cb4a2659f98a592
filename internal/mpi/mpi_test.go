package mpi

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"fibersim/internal/simnet"
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

// TestSendrecvIntoSteadyStateAllocatesNothing: once a world's eager
// buffers and mailbox queues have grown to the ring's peak in-flight
// count, further rounds of SendrecvInto allocate nothing, so 400 rounds
// cost at most a few more allocations than 100 (the slack covers a
// peak that the longer run happens to reach later).
func TestSendrecvIntoSteadyStateAllocatesNothing(t *testing.T) {
	ring := func(rounds int) func() {
		return func() {
			_, err := Run(Config{Ranks: 8}, func(c *Comm) error {
				right, left := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
				send, recv := make([]float64, 4096), make([]float64, 4096)
				for i := 0; i < rounds; i++ {
					if err := c.SendrecvInto(right, 0, send, left, 0, recv); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	short, long := testing.AllocsPerRun(3, ring(100)), testing.AllocsPerRun(3, ring(400))
	if long > short+8 {
		t.Errorf("400 rounds allocated %g objects, 100 rounds %g: want at most 8 more", long, short)
	}
}

// TestSendrecvIntoLengthMismatch: a message longer than the receive
// buffer is the receiver's error, naming both ranks, the tag and both
// lengths; recv stays untouched and the world ends without deadlock.
func TestSendrecvIntoLengthMismatch(t *testing.T) {
	recv := []float64{-1, -1, -1, -1}
	_, err := runWithin(t, 10*time.Second, Config{Ranks: 2}, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.SendrecvInto(1, 5, make([]float64, 8), 1, 6, nil)
		}
		return c.SendrecvInto(0, 6, nil, 0, 5, recv)
	})
	if err == nil || errors.Is(err, ErrDeadlock) {
		t.Fatalf("want the receiver's length error, got %v", err)
	}
	for _, want := range []string{"rank 1", "rank 0", "tag 5", "8 float64s", "buffer of 4"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if !reflect.DeepEqual(recv, []float64{-1, -1, -1, -1}) {
		t.Errorf("recv = %v, want it untouched", recv)
	}
}

// TestSendrecvIntoRecycledBuffer: rank 0 sends 8 floats, and once rank
// 1 has received them (and handed their buffer back) it sends 4
// different ones, which reuse that buffer. The second receive must get
// exactly the 4 new values.
func TestSendrecvIntoRecycledBuffer(t *testing.T) {
	second := make([]float64, 4)
	_, err := Run(Config{Ranks: 2}, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.SendrecvInto(1, 0, []float64{1, 2, 3, 4, 5, 6, 7, 8}, 1, 0, nil); err != nil {
				return err
			}
			// Rank 1's tag-0 reply comes after its first receive.
			return c.SendrecvInto(1, 1, []float64{10, 20, 30, 40}, 1, 9, nil)
		}
		first := make([]float64, 8)
		if err := c.SendrecvInto(0, 9, nil, 0, 0, first); err != nil {
			return err
		}
		return c.SendrecvInto(0, 0, nil, 0, 1, second)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, []float64{10, 20, 30, 40}) {
		t.Errorf("second receive = %v, want [10 20 30 40]", second)
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
		all := []float64{float64(c.Rank()), 1}
		if err := c.Allreduce(OpMax, all); err != nil {
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
		return c.Allreduce(OpSum, data)
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
		return c.Allreduce(OpSum, []float64{1})
	})
	if err == nil {
		t.Fatal("mismatched collectives must error")
	}
}

// TestMismatchedCollectiveNamesBoth pins the mismatch error's text:
// it names both rounds, rendered from their signatures.
func TestMismatchedCollectiveNamesBoth(t *testing.T) {
	for _, tc := range []struct {
		name  string
		other func(c *Comm) error
		want  string
	}{
		{"op", func(c *Comm) error { return c.Allreduce(OpMax, []float64{1, 2}) }, "allreduce/max/n=2"},
		{"length", func(c *Comm) error { return c.Allreduce(OpSum, []float64{1, 2, 3}) }, "allreduce/sum/n=3"},
		{"kind", func(c *Comm) error { return c.Barrier() }, "barrier"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(Config{Ranks: 2}, func(c *Comm) error {
				if c.Rank() == 1 {
					return tc.other(c)
				}
				return c.Allreduce(OpSum, []float64{1, 2})
			})
			if err == nil {
				t.Fatal("mismatched collectives must error")
			}
			msg := err.Error()
			for _, want := range []string{"mpi: mismatched collectives: rank ", " called allreduce/sum/n=2", " called " + tc.want} {
				if !strings.Contains(msg, want) {
					t.Errorf("error %q does not contain %q", msg, want)
				}
			}
		})
	}
}

// TestAllgatherCostsLargestPayload has three ranks gather 1, 2 and 3
// floats, round after round, and holds a different rank back each
// round until the other two have entered, so each rank is the last
// arriver in turn. Every rank must leave each round at the latest
// entry clock plus the cost of gathering the largest payload, 24 B.
func TestAllgatherCostsLargestPayload(t *testing.T) {
	// Three run slots, so the held-back rank can wait for the others.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const ranks, rounds = 3, 6
	cost := simnet.MustLookup("shm").Allgather(ranks, 24)
	var entry, exit [ranks][rounds]float64
	_, err := Run(Config{Ranks: ranks}, func(c *Comm) error {
		r, ph := c.Rank(), c.world.ph
		for i := 0; i < rounds; i++ {
			c.Clock().Advance(float64((r+i)%ranks)*1e-6, vtime.Compute)
			for r == i%ranks {
				ph.mu.Lock()
				others := ph.arrived
				ph.mu.Unlock()
				if others == ranks-1 {
					break
				}
				runtime.Gosched()
			}
			entry[r][i] = c.Clock().Now()
			if err := c.Allgather(make([]float64, 6), make([]float64, r+1)); err != nil {
				return err
			}
			exit[r][i] = c.Clock().Now()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		want := max(entry[0][i], entry[1][i], entry[2][i]) + cost
		for r := 0; r < ranks; r++ {
			if exit[r][i] != want {
				t.Errorf("round %d: rank %d left at %.17g, want %.17g", i, r, exit[r][i], want)
			}
		}
	}
}

// TestAllgather: ranks pass 1, 2 and 3 floats, and every rank's dst
// receives all six, in rank order.
func TestAllgather(t *testing.T) {
	want := []float64{0, 10, 11, 20, 21, 22}
	_, err := Run(Config{Ranks: 3}, func(c *Comm) error {
		mine := make([]float64, c.Rank()+1) // ragged contributions
		for i := range mine {
			mine[i] = float64(c.Rank()*10 + i)
		}
		dst := make([]float64, len(want))
		if err := c.Allgather(dst, mine); err != nil {
			return err
		}
		if !reflect.DeepEqual(dst, want) {
			t.Errorf("rank %d gathered %v, want %v", c.Rank(), dst, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllgatherDstLength: a dst that cannot hold the gathered floats
// fails the round on every rank, with an error naming the rank and
// both lengths, and no rank's dst is written.
func TestAllgatherDstLength(t *testing.T) {
	dsts := [][]float64{make([]float64, 6), make([]float64, 5), make([]float64, 6)}
	errs := make([]error, 3)
	_, err := Run(Config{Ranks: 3}, func(c *Comm) error {
		errs[c.Rank()] = c.Allgather(dsts[c.Rank()], []float64{1, 2, 3}[:c.Rank()+1])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d: want the dst length error", r)
		}
		for _, want := range []string{"rank 1", "dst of 5 float64s", "the 6 gathered"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("rank %d: error %q does not name %q", r, err, want)
			}
		}
	}
	for r, dst := range dsts {
		if !reflect.DeepEqual(dst, make([]float64, len(dst))) {
			t.Errorf("rank %d's dst = %v, want it untouched", r, dst)
		}
	}
}

// TestAllreduceFoldsInRankOrder: sums of 1e16, -1e16 and ones depend
// on the order of their additions. Every rank's buffer must hold the
// serial left fold in rank order. Element 0's reverse fold and its
// pairwise tree give 0, and element 1's fold in rank order 0, 3, 2, 1
// gives 0 too.
func TestAllreduceFoldsInRankOrder(t *testing.T) {
	vals := [][]float64{{1e16, 1e16}, {1, -1e16}, {-1e16, 1}, {1, 1}}
	want := make([]float64, 2)
	for _, v := range vals {
		for i := range want {
			want[i] += v[i]
		}
	}
	if want[0] != 1 || want[1] != 2 {
		t.Fatalf("serial left fold = %v, want [1 2]", want)
	}
	bufs := make([][]float64, len(vals))
	_, err := Run(Config{Ranks: len(vals)}, func(c *Comm) error {
		bufs[c.Rank()] = append([]float64(nil), vals[c.Rank()]...)
		return c.Allreduce(OpSum, bufs[c.Rank()])
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, b := range bufs {
		if !reflect.DeepEqual(b, want) {
			t.Errorf("rank %d's buffer = %v, want %v", r, b, want)
		}
	}
}

// TestFailedCollectiveWritesNoBuffer: a round whose ranks disagree on
// the reduction operator fails on every rank and leaves every buffer
// as it was.
func TestFailedCollectiveWritesNoBuffer(t *testing.T) {
	bufs := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	errs := make([]error, len(bufs))
	_, err := Run(Config{Ranks: len(bufs)}, func(c *Comm) error {
		op := OpSum
		if c.Rank() == 2 {
			op = OpMax
		}
		errs[c.Rank()] = c.Allreduce(op, bufs[c.Rank()])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "mismatched collectives") {
			t.Errorf("rank %d: want the mismatch error, got %v", r, err)
		}
	}
	if want := [][]float64{{1, 2}, {3, 4}, {5, 6}}; !reflect.DeepEqual(bufs, want) {
		t.Errorf("buffers = %v, want them untouched", bufs)
	}
}

// TestCollectivesSteadyStateAllocateNothing: collectives reduce and
// gather in the callers' buffers, so 400 rounds of AllreduceScalar,
// Allreduce and Allgather cost at most a few more allocations than
// 100 rounds do.
func TestCollectivesSteadyStateAllocateNothing(t *testing.T) {
	rounds := func(n int) func() {
		return func() {
			_, err := Run(Config{Ranks: 8}, func(c *Comm) error {
				vec, mine, all := make([]float64, 64), make([]float64, 16), make([]float64, 16*c.Size())
				for i := 0; i < n; i++ {
					if _, err := c.AllreduceScalar(OpSum, 1); err != nil {
						return err
					}
					if err := c.Allreduce(OpMax, vec); err != nil {
						return err
					}
					if err := c.Allgather(all, mine); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	short, long := testing.AllocsPerRun(3, rounds(100)), testing.AllocsPerRun(3, rounds(400))
	if long > short+8 {
		t.Errorf("400 rounds allocated %g objects, 100 rounds %g: want at most 8 more", long, short)
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
			got := append([]float64(nil), vecs[c.Rank()]...)
			if err := c.Allreduce(OpSum, got); err != nil {
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
		return c.Allreduce(OpSum, []float64{1})
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
		return c.Allreduce(OpSum, []float64{1})
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
		if err := c.Barrier(); err != nil {
			return err
		}
		_, err := c.AllreduceScalar(OpSum, 1)
		return err
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
	if !names["send"] || !names["recv"] || !names["barrier"] || !names["allreduce/sum/n=1"] {
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
