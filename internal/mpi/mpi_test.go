package mpi

import (
	"errors"
	"math"
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
		if c.Rank() == 0 {
			return c.Send(1, 7, []float64{1, 2, 3})
		}
		got, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if len(got) != 3 || got[0] != 1 || got[2] != 3 {
			t.Errorf("Recv got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesData(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float64{42}
			if err := c.Send(1, 0, buf); err != nil {
				return err
			}
			buf[0] = 0 // mutate after send; receiver must still see 42
			return nil
		}
		got, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if got[0] != 42 {
			t.Errorf("Send did not copy: got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderingSameTag(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 10; i++ {
				if err := c.Send(1, 0, []float64{float64(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < 10; i++ {
			got, err := c.Recv(0, 0)
			if err != nil {
				return err
			}
			if got[0] != float64(i) {
				t.Errorf("message %d out of order: got %g", i, got[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagSelectivity(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, []float64{1}); err != nil {
				return err
			}
			return c.Send(1, 2, []float64{2})
		}
		// Receive tag 2 first even though tag 1 arrived first.
		got2, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		got1, err := c.Recv(0, 1)
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

func TestAnySourceAnyTag(t *testing.T) {
	_, err := Run(Config{Ranks: 3}, func(c *Comm) error {
		if c.Rank() != 0 {
			return c.Send(0, c.Rank(), []float64{float64(c.Rank())})
		}
		sum := 0.0
		for i := 0; i < 2; i++ {
			got, err := c.Recv(AnySource, AnyTag)
			if err != nil {
				return err
			}
			sum += got[0]
		}
		if sum != 3 {
			t.Errorf("AnySource sum = %g, want 3", sum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvBytes(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.SendBytes(1, 0, []byte("ACGT"))
		}
		got, err := c.RecvBytes(0, 0)
		if err != nil {
			return err
		}
		if string(got) != "ACGT" {
			t.Errorf("RecvBytes got %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTypeMismatchErrors(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.SendBytes(1, 0, []byte{1})
		}
		_, err := c.Recv(0, 0)
		if err == nil {
			t.Error("Recv of a byte message should error")
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
			_, err := c.Recv(0, 99)
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
		if err := c.Send(5, 0, nil); err == nil {
			t.Error("Send to invalid rank should error")
		}
		if _, err := c.Recv(-7, 0); err == nil {
			t.Error("Recv from invalid rank should error")
		}
		if _, err := c.Bcast(9, nil); err == nil {
			t.Error("Bcast from invalid root should error")
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
		c.Advance(float64(c.Rank()), vtime.Compute)
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

func TestBcast(t *testing.T) {
	_, err := Run(Config{Ranks: 4}, func(c *Comm) error {
		var in []float64
		if c.Rank() == 2 {
			in = []float64{3.14, 2.71}
		}
		got, err := c.Bcast(2, in)
		if err != nil {
			return err
		}
		if len(got) != 2 || got[0] != 3.14 {
			t.Errorf("rank %d Bcast got %v", c.Rank(), got)
		}
		// Mutating the received copy must not affect other ranks.
		got[0] = float64(c.Rank())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastRootWithoutData(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(c *Comm) error {
		_, err := c.Bcast(0, nil) // root passes nil too
		return err
	})
	if err == nil {
		t.Fatal("Bcast with nil root buffer must error")
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	_, err := Run(Config{Ranks: 4}, func(c *Comm) error {
		data := []float64{float64(c.Rank()), 1}
		sum, err := c.Reduce(0, OpSum, data)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if sum[0] != 6 || sum[1] != 4 {
				t.Errorf("Reduce got %v", sum)
			}
		} else if sum != nil {
			t.Errorf("non-root rank %d got %v", c.Rank(), sum)
		}
		all, err := c.Allreduce(OpMax, []float64{float64(c.Rank())})
		if err != nil {
			return err
		}
		if all[0] != 3 {
			t.Errorf("Allreduce max got %v", all)
		}
		mn, err := c.AllreduceScalar(OpMin, float64(c.Rank()+10))
		if err != nil {
			return err
		}
		if mn != 10 {
			t.Errorf("AllreduceScalar min = %g", mn)
		}
		pr, err := c.AllreduceScalar(OpProd, 2)
		if err != nil {
			return err
		}
		if pr != 16 {
			t.Errorf("AllreduceScalar prod = %g", pr)
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

func TestGatherAllgather(t *testing.T) {
	_, err := Run(Config{Ranks: 3}, func(c *Comm) error {
		mine := make([]float64, c.Rank()+1) // ragged contributions
		for i := range mine {
			mine[i] = float64(c.Rank())
		}
		got, err := c.Gather(1, mine)
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			for r := 0; r < 3; r++ {
				if len(got[r]) != r+1 || (r > 0 && got[r][0] != float64(r)) {
					t.Errorf("Gather[%d] = %v", r, got[r])
				}
			}
		} else if got != nil {
			t.Errorf("non-root got %v", got)
		}
		all, err := c.Allgather([]float64{float64(c.Rank() * 10)})
		if err != nil {
			return err
		}
		for r := 0; r < 3; r++ {
			if all[r][0] != float64(r*10) {
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

func TestAlltoall(t *testing.T) {
	const p = 4
	_, err := Run(Config{Ranks: p}, func(c *Comm) error {
		chunks := make([][]float64, p)
		for j := 0; j < p; j++ {
			chunks[j] = []float64{float64(c.Rank()*100 + j)}
		}
		got, err := c.Alltoall(chunks)
		if err != nil {
			return err
		}
		for src := 0; src < p; src++ {
			want := float64(src*100 + c.Rank())
			if got[src][0] != want {
				t.Errorf("rank %d got[%d] = %v, want %g", c.Rank(), src, got[src], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallWrongChunks(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(c *Comm) error {
		_, err := c.Alltoall(make([][]float64, 1))
		return err
	})
	if err == nil {
		t.Fatal("Alltoall with wrong chunk count must error")
	}
}

func TestSplit(t *testing.T) {
	_, err := Run(Config{Ranks: 6}, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if sub.Size() != 3 {
			t.Errorf("sub size = %d", sub.Size())
		}
		// Sum of global ranks within each color.
		sum, err := sub.AllreduceScalar(OpSum, float64(c.Rank()))
		if err != nil {
			return err
		}
		want := 6.0 // 0+2+4
		if c.Rank()%2 == 1 {
			want = 9 // 1+3+5
		}
		if sum != want {
			t.Errorf("rank %d: split sum = %g, want %g", c.Rank(), sum, want)
		}
		// p2p inside the subcommunicator uses sub ranks.
		if sub.Rank() == 0 {
			return sub.Send(1, 0, []float64{sum})
		}
		if sub.Rank() == 1 {
			got, err := sub.Recv(0, 0)
			if err != nil {
				return err
			}
			if got[0] != want {
				t.Errorf("sub p2p got %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitByKeyReorders(t *testing.T) {
	_, err := Run(Config{Ranks: 3}, func(c *Comm) error {
		// Reverse order via key.
		sub, err := c.Split(0, -c.Rank())
		if err != nil {
			return err
		}
		wantRank := 2 - c.Rank()
		if sub.Rank() != wantRank {
			t.Errorf("global %d got sub rank %d, want %d", c.Rank(), sub.Rank(), wantRank)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualTimeP2P(t *testing.T) {
	// One 8 MiB message across nodes: receive completes no earlier than
	// the fabric transfer time.
	cfg := Config{Ranks: 2}
	cfg.RanksPerNode = 1 // force inter-node
	n := 1 << 20         // 1Mi float64 = 8 MiB
	res, err := Run(cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, make([]float64, n))
		}
		_, err := c.Recv(0, 0)
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
		t.Errorf("eager sender should finish before receiver: %g vs %g", res.Times[0], res.Times[1])
	}
}

func TestIntraNodeFasterThanInterNode(t *testing.T) {
	timeFor := func(perNode int) float64 {
		cfg := Config{Ranks: 2}
		cfg.RanksPerNode = perNode
		res, err := Run(cfg, func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Send(1, 0, make([]float64, 4096))
			}
			_, err := c.Recv(0, 0)
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
		c.Advance(float64(c.Rank()+1), vtime.Compute)
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
	for _, o := range []Op{OpSum, OpMax, OpMin, OpProd} {
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
		c.Advance(float64(4-c.Rank()), vtime.Compute)
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

func TestScatter(t *testing.T) {
	const p = 4
	_, err := Run(Config{Ranks: p}, func(c *Comm) error {
		var chunks [][]float64
		if c.Rank() == 2 {
			chunks = make([][]float64, p)
			for i := range chunks {
				chunks[i] = []float64{float64(i * 10)}
			}
		}
		got, err := c.Scatter(2, chunks)
		if err != nil {
			return err
		}
		if len(got) != 1 || got[0] != float64(c.Rank()*10) {
			t.Errorf("rank %d scatter got %v", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatterWrongChunks(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(c *Comm) error {
		var chunks [][]float64
		if c.Rank() == 0 {
			chunks = make([][]float64, 1) // wrong count
		}
		_, err := c.Scatter(0, chunks)
		return err
	})
	if err == nil {
		t.Fatal("scatter with wrong chunk count must error")
	}
}

func TestReduceScatter(t *testing.T) {
	const p = 4
	_, err := Run(Config{Ranks: p}, func(c *Comm) error {
		data := make([]float64, p*2)
		for i := range data {
			data[i] = float64(i)
		}
		got, err := c.ReduceScatter(OpSum, data)
		if err != nil {
			return err
		}
		// Sum over p ranks of identical vectors: element i -> p*i.
		if len(got) != 2 {
			t.Fatalf("chunk size %d", len(got))
		}
		for j, v := range got {
			want := float64(p * (c.Rank()*2 + j))
			if v != want {
				t.Errorf("rank %d got[%d] = %g, want %g", c.Rank(), j, v, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceScatterIndivisible(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(c *Comm) error {
		_, err := c.ReduceScatter(OpSum, make([]float64, 3))
		return err
	})
	if err == nil {
		t.Fatal("indivisible reduce-scatter must error")
	}
}

func TestCommStats(t *testing.T) {
	res, err := Run(Config{Ranks: 4}, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 0, []float64{1, 2}); err != nil {
				return err
			}
		}
		if c.Rank() == 1 {
			if _, err := c.Recv(0, 0); err != nil {
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
	if res.Comm.Sends != 1 || res.Comm.SendBytes != 16 {
		t.Errorf("sends=%d bytes=%d, want 1/16", res.Comm.Sends, res.Comm.SendBytes)
	}
	if res.Comm.Collectives["barrier"] != 4 || res.Comm.Collectives["allreduce"] != 4 {
		t.Errorf("collectives = %v", res.Comm.Collectives)
	}
	s := res.Comm.String()
	for _, want := range []string{"sends=1", "barrier=4", "allreduce=4"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

func TestTracing(t *testing.T) {
	cfg := Config{Ranks: 2}
	cfg.TraceCapacity = 64
	res, err := Run(cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 0, []float64{1}); err != nil {
				return err
			}
		} else if _, err := c.Recv(0, 0); err != nil {
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
	if !names["recv"] || !names["barrier"] {
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

func TestProcNull(t *testing.T) {
	// Non-periodic halo exchange: boundary ranks talk to ProcNull and
	// the pattern stays uniform.
	const p = 4
	res, err := Run(Config{Ranks: p}, func(c *Comm) error {
		up, down := c.Rank()+1, c.Rank()-1
		if up >= p {
			up = ProcNull
		}
		if down < 0 {
			down = ProcNull
		}
		got, err := c.Sendrecv(up, 3, []float64{float64(c.Rank())}, down, 3)
		if err != nil {
			return err
		}
		if down == ProcNull {
			if got != nil {
				t.Errorf("rank %d: ProcNull recv returned %v", c.Rank(), got)
			}
		} else if got[0] != float64(down) {
			t.Errorf("rank %d got %v from %d", c.Rank(), got, down)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// ProcNull traffic is free: only the p-1 real messages counted.
	if res.Comm.Sends != p-1 {
		t.Errorf("sends = %d, want %d", res.Comm.Sends, p-1)
	}
}
