package simnet

import (
	"math"
	"testing"
	"testing/quick"

	"fibersim/internal/units"
)

func TestRegistryPresent(t *testing.T) {
	for _, name := range []string{"tofud", "infiniband", "tofu1", "shm"} {
		f, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if err := f.Validate(); err != nil {
			t.Errorf("fabric %q invalid: %v", name, err)
		}
	}
	if _, err := Lookup("carrier-pigeon"); err == nil {
		t.Error("expected error for unknown fabric")
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names not sorted: %v", names)
		}
	}
}

func TestPointToPointMonotoneInSize(t *testing.T) {
	f := MustLookup("tofud")
	prev := -1.0
	for _, n := range []int64{0, 1, 512, 4096, 32 << 10, 33 << 10, 1 << 20, 64 << 20} {
		got := f.PointToPoint(n)
		if got <= 0 {
			t.Errorf("PointToPoint(%d) = %g, want > 0", n, got)
		}
		if got < prev {
			t.Errorf("PointToPoint not monotone at %d: %g < %g", n, got, prev)
		}
		prev = got
	}
}

func TestPointToPointNegativeClamped(t *testing.T) {
	f := MustLookup("shm")
	if f.PointToPoint(-5) != f.PointToPoint(0) {
		t.Error("negative size should be clamped to zero")
	}
}

func TestRendezvousKink(t *testing.T) {
	f := MustLookup("infiniband")
	small := f.PointToPoint(f.EagerLimit)
	large := f.PointToPoint(f.EagerLimit + 1)
	if large-small < 2*f.Latency.Raw() {
		t.Errorf("rendezvous should add 2 latencies: small=%g large=%g", small, large)
	}
}

func TestCollectivesSingleRankFree(t *testing.T) {
	f := MustLookup("tofud")
	if f.Barrier(1) != 0 || f.Allreduce(1, 100, 1e-9) != 0 || f.Allgather(1, 100) != 0 {
		t.Error("collectives over one rank must be free")
	}
	if f.Barrier(0) != 0 {
		t.Error("degenerate barrier must be free")
	}
}

func TestCollectivesGrowWithRanks(t *testing.T) {
	f := MustLookup("infiniband")
	const n = 8 << 10
	for p := 2; p <= 64; p *= 2 {
		if f.Barrier(p) < f.Barrier(p/2) {
			t.Errorf("Barrier(%d) < Barrier(%d)", p, p/2)
		}
		if f.Allreduce(p, n, 1e-10) < f.Allreduce(p/2, n, 1e-10) {
			t.Errorf("Allreduce(%d) < Allreduce(%d)", p, p/2)
		}
		if f.Allgather(p, n) <= f.Allgather(p/2, n) {
			t.Errorf("Allgather(%d) <= Allgather(%d)", p, p/2)
		}
	}
}

func TestCeilLog2(t *testing.T) {
	cases := []struct{ p, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10},
	}
	for _, c := range cases {
		if got := ceilLog2(c.p); got != c.want {
			t.Errorf("ceilLog2(%d) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestShmFasterThanFabrics(t *testing.T) {
	shm := MustLookup("shm")
	for _, name := range []string{"tofud", "infiniband", "tofu1"} {
		f := MustLookup(name)
		if shm.PointToPoint(1024) >= f.PointToPoint(1024) {
			t.Errorf("shm should beat %s for small messages", name)
		}
	}
}

func TestTofuDLowerLatencyThanIB(t *testing.T) {
	// The Tofu-D design point: lower latency, lower per-link bandwidth
	// than IB EDR.
	td := MustLookup("tofud")
	ib := MustLookup("infiniband")
	if td.Latency >= ib.Latency {
		t.Error("Tofu-D latency should be below InfiniBand EDR")
	}
	if td.Bandwidth >= ib.Bandwidth {
		t.Error("Tofu-D per-link bandwidth should be below InfiniBand EDR")
	}
}

func TestValidate(t *testing.T) {
	nan, inf := units.Seconds(math.NaN()), units.Seconds(math.Inf(1))
	bad := []*Fabric{
		{Name: "", Bandwidth: 1},
		{Name: "x", Bandwidth: 0},
		{Name: "x", Bandwidth: 1, Latency: -1},
		{Name: "x", Bandwidth: 1, MsgOverhead: -1},
		{Name: "x", Bandwidth: 1, EagerLimit: -1},
		// NaN fails every </<= comparison, so without the explicit guard
		// these all slipped through Validate.
		{Name: "x", Bandwidth: 1, Latency: nan},
		{Name: "x", Bandwidth: units.BytesPerSec(math.NaN())},
		{Name: "x", Bandwidth: 1, MsgOverhead: nan},
		{Name: "x", Bandwidth: 1, HopLatency: nan},
		{Name: "x", Bandwidth: units.BytesPerSec(math.Inf(1))},
		{Name: "x", Bandwidth: 1, Latency: inf},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted a broken fabric %+v", i, *f)
		}
	}
	// Every registered fabric must of course still validate.
	for _, name := range Names() {
		if err := MustLookup(name).Validate(); err != nil {
			t.Errorf("registered fabric %q fails Validate: %v", name, err)
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register must panic")
		}
	}()
	Register(&Fabric{Name: "shm", Bandwidth: 1})
}

func TestCollectiveCostsNonNegativeProperty(t *testing.T) {
	f := MustLookup("tofud")
	prop := func(p uint8, n uint32) bool {
		ranks := int(p)
		size := int64(n)
		return f.Barrier(ranks) >= 0 &&
			f.Allreduce(ranks, size, 1e-10) >= 0 &&
			f.Allgather(ranks, size) >= 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
