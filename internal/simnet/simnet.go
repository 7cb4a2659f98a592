// Package simnet models the interconnects of the evaluated systems.
//
// The paper runs single-node and multi-node configurations; messages
// between MPI ranks either cross shared memory (ranks on the same node)
// or the fabric (Tofu-D for A64FX/Fugaku, InfiniBand EDR for the x86 and
// ThunderX2 clusters, Tofu for the K computer). This package supplies
// latency/bandwidth point-to-point costs and LogP-style collective
// costs; internal/mpi charges them against the ranks' virtual clocks.
package simnet

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"fibersim/internal/units"
)

// Fabric is a network cost model. The cost parameters carry their
// dimensions as internal/units types, so the LogP arithmetic below is
// checked for unit consistency by the fiberlint unitcheck rule; the
// exported cost methods return raw float64 seconds, the convention
// the virtual clocks in internal/vtime charge in.
type Fabric struct {
	// Name is the registry key.
	Name string
	// Label describes the fabric in reports.
	Label string
	// Latency is the one-way small-message latency.
	Latency units.Seconds
	// Bandwidth is the per-link bandwidth.
	Bandwidth units.BytesPerSec
	// MsgOverhead is the per-message software overhead charged to
	// both endpoints (the "o" of LogP).
	MsgOverhead units.Seconds
	// EagerLimit is the message size (bytes) below which the eager
	// protocol applies; larger messages pay one extra rendezvous
	// round-trip of Latency.
	EagerLimit int64
	// HopLatency is the added latency per network hop beyond the first
	// (used with a Topology; zero for flat fabrics).
	HopLatency units.Seconds
}

// Validate reports structural problems with a fabric description.
func (f *Fabric) Validate() error {
	if f.Name == "" {
		return fmt.Errorf("simnet: fabric has no name")
	}
	// NaN fails every ordered comparison, so the range checks alone would
	// wave a NaN latency or bandwidth through; reject NaN/Inf explicitly
	// (mirroring core.Kernel.Validate).
	for _, c := range []struct {
		v    float64
		what string
	}{
		{f.Latency.Raw(), "latency"},
		{f.Bandwidth.Raw(), "bandwidth"},
		{f.MsgOverhead.Raw(), "message overhead"},
		{f.HopLatency.Raw(), "hop latency"},
	} {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return fmt.Errorf("simnet: fabric %q has non-finite %s (%g)", f.Name, c.what, c.v)
		}
	}
	if f.Latency < 0 || f.Bandwidth <= 0 || f.MsgOverhead < 0 || f.EagerLimit < 0 || f.HopLatency < 0 {
		return fmt.Errorf("simnet: fabric %q has invalid parameters", f.Name)
	}
	return nil
}

// pointToPoint is PointToPoint in dimensioned form, for composition
// inside the package.
func (f *Fabric) pointToPoint(n int64) units.Seconds {
	if n < 0 {
		n = 0
	}
	t := f.Latency + f.Bandwidth.Time(units.Bytes(n)) + 2*f.MsgOverhead
	if n > f.EagerLimit {
		// Rendezvous: request + clear-to-send round trip.
		t += 2 * f.Latency
	}
	return t
}

// PointToPoint returns the time in seconds for one message of n bytes
// to travel from send-post to receive-completion, excluding any
// waiting for the partner (internal/mpi handles matching).
func (f *Fabric) PointToPoint(n int64) float64 {
	return f.pointToPoint(n).Raw()
}

// SendOverhead returns the sender-side software cost in seconds,
// charged even when the transfer itself is pipelined.
func (f *Fabric) SendOverhead() float64 { return f.MsgOverhead.Raw() }

// ceilLog2 returns ceil(log2(p)) for p >= 1.
func ceilLog2(p int) int {
	if p <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(p))))
}

// Barrier returns the cost in seconds of a dissemination barrier over
// p ranks.
func (f *Fabric) Barrier(p int) float64 {
	if p <= 1 {
		return 0
	}
	return (f.Latency + 2*f.MsgOverhead).Times(float64(ceilLog2(p))).Raw()
}

// Allreduce returns the cost in seconds of a recursive-doubling
// allreduce of n bytes over p ranks; gamma is the per-byte local
// combine cost in seconds/byte (charged once per level).
func (f *Fabric) Allreduce(p int, n int64, gamma float64) float64 {
	if p <= 1 {
		return 0
	}
	combine := units.Seconds(gamma * float64(n))
	return (f.pointToPoint(n) + combine).Times(float64(ceilLog2(p))).Raw()
}

// Allgather returns the cost in seconds of a ring allgather of n bytes
// per rank.
func (f *Fabric) Allgather(p int, n int64) float64 {
	if p <= 1 {
		return 0
	}
	return f.pointToPoint(n).Times(float64(p - 1)).Raw()
}

var (
	registryMu sync.RWMutex
	registry   = map[string]*Fabric{}
)

// Register adds a fabric to the registry, panicking on duplicates or
// invalid descriptions (registry is built at init time).
func Register(f *Fabric) {
	if err := f.Validate(); err != nil {
		panic(err)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[f.Name]; dup {
		panic(fmt.Sprintf("simnet: duplicate fabric %q", f.Name))
	}
	registry[f.Name] = f
}

// Lookup returns the fabric registered under name.
func Lookup(name string) (*Fabric, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("simnet: unknown fabric %q (have %v)", name, Names())
	}
	return f, nil
}

// MustLookup is Lookup for fabrics known to exist.
func MustLookup(name string) *Fabric {
	f, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return f
}

// Names returns the sorted registry keys.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	// Tofu interconnect D (Fugaku): 6.8 GB/s per link x 6 links; the
	// single-link figure is used since one rank drives one link.
	Register(&Fabric{
		Name: "tofud", Label: "Tofu interconnect D",
		Latency: 0.49e-6, Bandwidth: 6.8e9, MsgOverhead: 0.2e-6,
		EagerLimit: 32 << 10, HopLatency: 0.08e-6,
	})
	// InfiniBand EDR (100 Gb/s).
	Register(&Fabric{
		Name: "infiniband", Label: "InfiniBand EDR",
		Latency: 1.0e-6, Bandwidth: 12.5e9, MsgOverhead: 0.3e-6,
		EagerLimit: 16 << 10,
	})
	// Tofu (K computer): 5 GB/s per link.
	Register(&Fabric{
		Name: "tofu1", Label: "Tofu interconnect (K)",
		Latency: 1.5e-6, Bandwidth: 5.0e9, MsgOverhead: 0.5e-6,
		EagerLimit: 32 << 10, HopLatency: 0.1e-6,
	})
	// Intra-node shared-memory transport: what single-node runs use.
	// Latency/overhead reflect MPI software costs (matching, copies),
	// not raw cache-line transfers: intra-node MPI ping-pong is a few
	// hundred nanoseconds and a 48-rank allreduce several microseconds.
	Register(&Fabric{
		Name: "shm", Label: "intra-node shared memory",
		Latency: 0.3e-6, Bandwidth: 20e9, MsgOverhead: 0.2e-6,
		EagerLimit: 64 << 10,
	})
}
