package obs

import (
	"sort"
	"strconv"
	"sync"
)

// Recorder collects the profiling spans of one run. The instrumented
// runtimes call it from every rank concurrently; all methods are safe
// for concurrent use and are no-ops on a nil receiver, so a disabled
// recorder costs nothing on the hot paths.
//
// A record only updates accumulators kept per (rank, kernel), (rank,
// op) and rank, under mu. Profile folds them in rank order: one rank's
// calls arrive in its program order, so the folded sums do not depend
// on how the host interleaved the ranks. Registry renders the same
// accumulators as metric series when it is called.
type Recorder struct {
	mu      sync.Mutex
	kernels map[seriesKey]*kernelAcc
	ops     map[seriesKey]*opAcc
	peers   map[peerKey]*peerAcc
	ranks   map[int]*rankAcc
	app     string
	run     string
}

type kernelAcc struct {
	calls        int64
	iters, flops float64
	attr         Attribution
	// charges counts the charge durations per TimeBuckets bucket, the
	// +Inf bucket last, and chargeSum sums them.
	charges   [numTimeBuckets + 1]int64
	chargeSum float64
}

type opAcc struct {
	count int64
	bytes int64
	wait  float64
}

type peerKey struct{ src, dst int }

type peerAcc struct {
	count int64
	bytes int64
}

// rankAcc holds one rank's parallel-region and trace-drop totals.
type rankAcc struct {
	omp OMPProfile
	// imbalance sums only the positive region imbalances: a counter
	// never goes down, and a balanced region's can round below zero.
	imbalance float64
	dropped   int64
}

// seriesKey names one rank's kernel or op: the key of its accumulator
// and of its metric series.
type seriesKey struct {
	rank int
	name string
}

// chargeBuckets bounds the kernel-charge duration histogram.
var chargeBuckets = TimeBuckets()

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		kernels: map[seriesKey]*kernelAcc{},
		ops:     map[seriesKey]*opAcc{},
		peers:   map[peerKey]*peerAcc{},
		ranks:   map[int]*rankAcc{},
	}
}

// SetMeta names the run: its app and run identity label every metric
// series Registry renders, so they apply to the whole run, records made
// before the call included.
func (r *Recorder) SetMeta(app, run string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.app, r.run = app, run
	r.mu.Unlock()
}

// KernelCharge records one modelled kernel invocation on one rank with
// its ECM-style time attribution.
func (r *Recorder) KernelCharge(rank int, kernel string, iters, flops float64, attr Attribution) {
	if r == nil {
		return
	}
	d := attr.Total()
	r.mu.Lock()
	defer r.mu.Unlock()
	acc, ok := r.kernels[seriesKey{rank, kernel}]
	if !ok {
		acc = &kernelAcc{}
		r.kernels[seriesKey{rank, kernel}] = acc
	}
	acc.calls++
	acc.iters += iters
	acc.flops += flops
	acc.attr = acc.attr.Add(attr)
	acc.charges[sort.SearchFloat64s(chargeBuckets, d)]++
	acc.chargeSum += d
}

// MPIOp records one MPI operation on one rank: op is the operation
// name ("send", "recv", "allreduce", ...), peer the remote rank (-1
// for collectives), bytes the payload and wait the virtual time the
// rank spent in the operation.
func (r *Recorder) MPIOp(rank int, op string, peer int, bytes int64, wait float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	acc, ok := r.ops[seriesKey{rank, op}]
	if !ok {
		acc = &opAcc{}
		r.ops[seriesKey{rank, op}] = acc
	}
	acc.count++
	acc.bytes += bytes
	acc.wait += wait
	if peer >= 0 && bytes > 0 {
		k := peerKey{src: rank, dst: peer}
		if op == "recv" {
			k = peerKey{src: peer, dst: rank}
		}
		p, ok := r.peers[k]
		if !ok {
			p = &peerAcc{}
			r.peers[k] = p
		}
		// Sends carry the flow accounting; recv updates only the wait
		// (counted in ops) so a message is not double-counted per peer.
		if op != "recv" {
			p.count++
			p.bytes += bytes
		}
	}
}

// rankLocked returns rank's accumulator; callers hold r.mu.
func (r *Recorder) rankLocked(rank int) *rankAcc {
	acc, ok := r.ranks[rank]
	if !ok {
		acc = &rankAcc{}
		r.ranks[rank] = acc
	}
	return acc
}

// OMPRegion records one parallel region on one rank: overhead is the
// fork/join cost, imbalance the time the critical path exceeded the
// mean thread busy time.
func (r *Recorder) OMPRegion(rank int, overhead, imbalance float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	acc := r.rankLocked(rank)
	acc.omp.Regions++
	acc.omp.BarrierSeconds += overhead
	acc.omp.ImbalanceSeconds += imbalance
	if imbalance > 0 {
		acc.imbalance += imbalance
	}
}

// TraceDrops records how many timeline events a rank's trace log
// dropped at capacity.
func (r *Recorder) TraceDrops(rank int, dropped int64) {
	if r == nil || dropped == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rankLocked(rank).dropped += dropped
}

// Registry renders the accumulators as a fresh metrics registry for
// exposition, labelled with SetMeta's names. A series whose value
// would be zero is left out (a kernel's unused resources, an op's
// bytes or wait, a rank's region or drop totals), and the counters
// are the running totals the records added up. A nil recorder returns
// nil.
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	labels := func(rank int, kv ...string) Labels {
		l := Labels{"rank": strconv.Itoa(rank)}
		if r.app != "" {
			l["app"] = r.app
		}
		if r.run != "" {
			l["run"] = r.run
		}
		for i := 0; i+1 < len(kv); i += 2 {
			l[kv[i]] = kv[i+1]
		}
		return l
	}
	reg := NewRegistry()
	counter := func(name, help string, v float64, l Labels) {
		if v > 0 {
			reg.Counter(name, help, l).Add(v)
		}
	}
	for k, acc := range r.kernels {
		l := labels(k.rank, "kernel", k.name)
		counter("fibersim_kernel_calls_total", "modelled kernel charges", float64(acc.calls), l)
		h := reg.Histogram("fibersim_kernel_charge_seconds", "virtual duration of one kernel charge", chargeBuckets, l)
		for i := range h.buckets {
			h.buckets[i].Store(acc.charges[i])
		}
		h.inf.Store(acc.charges[len(h.buckets)])
		h.count.Store(acc.calls)
		h.sum.Set(acc.chargeSum)
		for res := ResCompute; res < numResources; res++ {
			counter("fibersim_kernel_seconds_total", "virtual kernel time by bounding resource",
				acc.attr.Get(res), labels(k.rank, "kernel", k.name, "resource", res.String()))
		}
	}
	for k, acc := range r.ops {
		l := labels(k.rank, "op", k.name)
		counter("fibersim_mpi_ops_total", "MPI operations", float64(acc.count), l)
		counter("fibersim_mpi_bytes_total", "MPI payload bytes", float64(acc.bytes), l)
		counter("fibersim_mpi_wait_seconds_total", "virtual time spent inside MPI operations", acc.wait, l)
	}
	for rank, acc := range r.ranks {
		l := labels(rank)
		counter("fibersim_omp_barrier_seconds_total", "fork/join and barrier overhead", acc.omp.BarrierSeconds, l)
		counter("fibersim_omp_imbalance_seconds_total", "critical-path excess over mean thread busy time", acc.imbalance, l)
		counter("fibersim_trace_dropped_total", "timeline events dropped at trace capacity", float64(acc.dropped), l)
	}
	return reg
}

// KernelProfile is the folded charge history of one kernel.
type KernelProfile struct {
	Kernel  string  `json:"kernel"`
	Calls   int64   `json:"calls"`
	Iters   float64 `json:"iters"`
	Flops   float64 `json:"flops"`
	Seconds float64 `json:"seconds"`
	// Attribution splits Seconds across the bounding resources.
	Attribution Attribution `json:"attribution"`
	// Dominant is the largest attribution bucket ("compute", "stall",
	// "l1", "l2", "mem").
	Dominant string `json:"dominant"`
	// Category is the analyzer-compatible two-way classification
	// ("compute" or "memory").
	Category string `json:"category"`
}

// CommOp is the folded history of one MPI operation kind.
type CommOp struct {
	Count       int64   `json:"count"`
	Bytes       int64   `json:"bytes"`
	WaitSeconds float64 `json:"wait_seconds"`
}

// PeerFlow is the folded point-to-point traffic between two ranks.
type PeerFlow struct {
	Src   int   `json:"src"`
	Dst   int   `json:"dst"`
	Count int64 `json:"count"`
	Bytes int64 `json:"bytes"`
}

// CommProfile is the communication side of a Profile.
type CommProfile struct {
	// Ops keys per-operation totals by operation name.
	Ops map[string]CommOp `json:"ops,omitempty"`
	// Peers lists point-to-point flows, ordered by (src, dst).
	Peers []PeerFlow `json:"peers,omitempty"`
	// WaitSeconds sums the virtual time spent in all MPI operations.
	WaitSeconds float64 `json:"wait_seconds"`
}

// OMPProfile is the threading-runtime side of a Profile.
type OMPProfile struct {
	Regions          int64   `json:"regions"`
	BarrierSeconds   float64 `json:"barrier_seconds"`
	ImbalanceSeconds float64 `json:"imbalance_seconds"`
}

// Profile is the folded observability record of one run.
type Profile struct {
	// Kernels is ordered by time, largest first (ties by name).
	Kernels []KernelProfile `json:"kernels,omitempty"`
	Comm    CommProfile     `json:"comm"`
	OMP     OMPProfile      `json:"omp"`
	// TraceDropped counts timeline events lost at trace capacity.
	TraceDropped int64 `json:"trace_dropped,omitempty"`
}

// KernelSeconds sums the attributed kernel time across all kernels.
func (p Profile) KernelSeconds() float64 {
	var t float64
	for _, k := range p.Kernels {
		t += k.Seconds
	}
	return t
}

// Kernel returns the profile entry for one kernel name.
func (p Profile) Kernel(name string) (KernelProfile, bool) {
	for _, k := range p.Kernels {
		if k.Kernel == name {
			return k, true
		}
	}
	return KernelProfile{}, false
}

// Profile folds the recorded spans into a Profile snapshot. A nil
// recorder returns an empty profile.
func (r *Recorder) Profile() Profile {
	if r == nil {
		return Profile{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	var p Profile
	for _, k := range sortedKeys(r.kernels) {
		acc := r.kernels[k]
		if n := len(p.Kernels); n == 0 || p.Kernels[n-1].Kernel != k.name {
			p.Kernels = append(p.Kernels, KernelProfile{Kernel: k.name})
		}
		kp := &p.Kernels[len(p.Kernels)-1]
		kp.Calls += acc.calls
		kp.Iters += acc.iters
		kp.Flops += acc.flops
		kp.Attribution = kp.Attribution.Add(acc.attr)
	}
	for i := range p.Kernels {
		kp := &p.Kernels[i]
		kp.Seconds = kp.Attribution.Total()
		kp.Dominant = kp.Attribution.Dominant().String()
		kp.Category = kp.Attribution.Category().String()
	}
	sort.Slice(p.Kernels, func(i, j int) bool {
		//fiberlint:ignore floatcmp exact tie-break keeps the ordering deterministic
		if p.Kernels[i].Seconds != p.Kernels[j].Seconds {
			return p.Kernels[i].Seconds > p.Kernels[j].Seconds
		}
		return p.Kernels[i].Kernel < p.Kernels[j].Kernel
	})

	if len(r.ops) > 0 {
		p.Comm.Ops = map[string]CommOp{}
		var names []string
		for _, k := range sortedKeys(r.ops) {
			acc := r.ops[k]
			op, ok := p.Comm.Ops[k.name]
			if !ok {
				names = append(names, k.name)
			}
			op.Count += acc.count
			op.Bytes += acc.bytes
			op.WaitSeconds += acc.wait
			p.Comm.Ops[k.name] = op
		}
		for _, name := range names {
			p.Comm.WaitSeconds += p.Comm.Ops[name].WaitSeconds
		}
	}
	for k, acc := range r.peers {
		p.Comm.Peers = append(p.Comm.Peers, PeerFlow{
			Src: k.src, Dst: k.dst, Count: acc.count, Bytes: acc.bytes,
		})
	}
	sort.Slice(p.Comm.Peers, func(i, j int) bool {
		if p.Comm.Peers[i].Src != p.Comm.Peers[j].Src {
			return p.Comm.Peers[i].Src < p.Comm.Peers[j].Src
		}
		return p.Comm.Peers[i].Dst < p.Comm.Peers[j].Dst
	})

	ranks := make([]int, 0, len(r.ranks))
	for rank := range r.ranks {
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)
	for _, rank := range ranks {
		acc := r.ranks[rank]
		p.OMP.Regions += acc.omp.Regions
		p.OMP.BarrierSeconds += acc.omp.BarrierSeconds
		p.OMP.ImbalanceSeconds += acc.omp.ImbalanceSeconds
		p.TraceDropped += acc.dropped
	}
	return p
}

// sortedKeys returns m's keys ordered by name, then rank: the order
// Profile folds per-rank accumulators in.
func sortedKeys[V any](m map[seriesKey]V) []seriesKey {
	keys := make([]seriesKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].rank < keys[j].rank
	})
	return keys
}
