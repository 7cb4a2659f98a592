package mpi

import (
	"testing"

	"fibersim/internal/obs"
	"fibersim/internal/trace"
)

func TestCollectiveBytes(t *testing.T) {
	res, err := Run(Config{Ranks: 4}, func(c *Comm) error {
		if err := c.Allreduce(OpSum, []float64{1, 2}); err != nil {
			return err
		}
		if err := c.Allgather(make([]float64, 10), make([]float64, c.Rank()+1)); err != nil {
			return err
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each of 4 ranks contributes its 2-element payload to allreduce.
	if got := res.Comm.CollectiveBytes["allreduce"]; got != 4*16 {
		t.Errorf("allreduce bytes = %d, want 64", got)
	}
	// Allgather counts each rank's own, ragged, contribution.
	if got := res.Comm.CollectiveBytes["allgather"]; got != (1+2+3+4)*8 {
		t.Errorf("allgather bytes = %d, want 80", got)
	}
	if got := res.Comm.CollectiveBytes["barrier"]; got != 0 {
		t.Errorf("barrier bytes = %d, want 0", got)
	}
}

func TestRecorderIntegration(t *testing.T) {
	rec := obs.NewRecorder()
	cfg := Config{Ranks: 2}
	cfg.Recorder = rec
	_, err := Run(cfg, func(c *Comm) error {
		if _, err := c.Sendrecv(1-c.Rank(), 0, []float64{1, 2}, 1-c.Rank(), 0); err != nil {
			return err
		}
		return c.Allreduce(OpSum, []float64{1})
	})
	if err != nil {
		t.Fatal(err)
	}
	p := rec.Profile()
	send := p.Comm.Ops["send"]
	if send.Count != 2 || send.Bytes != 32 {
		t.Errorf("send op = %+v, want count 2 bytes 32", send)
	}
	recv := p.Comm.Ops["recv"]
	if recv.Count != 2 || recv.Bytes != 32 || recv.WaitSeconds <= 0 {
		t.Errorf("recv op = %+v, want count 2 bytes 32 wait > 0", recv)
	}
	ar := p.Comm.Ops["allreduce"]
	if ar.Count != 2 || ar.Bytes != 16 {
		t.Errorf("allreduce op = %+v, want count 2 bytes 16", ar)
	}
	// Each message appears once in the peer matrix (send side only).
	if len(p.Comm.Peers) != 2 {
		t.Fatalf("peers = %+v, want exactly two flows", p.Comm.Peers)
	}
	for src, f := range p.Comm.Peers {
		if f.Src != src || f.Dst != 1-src || f.Count != 1 || f.Bytes != 16 {
			t.Errorf("peer flow %d = %+v", src, f)
		}
	}
	if p.Comm.WaitSeconds <= 0 {
		t.Error("total wait must be positive")
	}
}

func TestTraceFlowEvents(t *testing.T) {
	cfg := Config{Ranks: 2}
	cfg.TraceCapacity = 64
	res, err := Run(cfg, func(c *Comm) error {
		_, err := c.Sendrecv(1-c.Rank(), 0, []float64{1}, 1-c.Rank(), 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	out, in := map[uint64]trace.Event{}, map[uint64]trace.Event{}
	for _, l := range res.Traces {
		for _, ev := range l.Events() {
			switch ev.FlowKind {
			case trace.FlowOut:
				out[ev.Flow] = ev
			case trace.FlowIn:
				in[ev.Flow] = ev
			}
		}
	}
	if len(out) != 2 || len(in) != 2 {
		t.Fatalf("want two flows with both endpoints: out=%+v in=%+v", out, in)
	}
	for id, o := range out {
		i, ok := in[id]
		if id == 0 || !ok {
			t.Fatalf("flow %d: send %+v has no matching recv", id, o)
		}
		if o.Name != "send" || i.Name != "recv" {
			t.Errorf("flow %d slice names = %q/%q", id, o.Name, i.Name)
		}
		if i.Rank != 1-o.Rank {
			t.Errorf("flow %d ranks = %d/%d", id, o.Rank, i.Rank)
		}
	}
}
