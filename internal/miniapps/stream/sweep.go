package stream

import (
	"math"
	"sync"
)

// block is how many elements of each array the sweep takes through
// every repetition before it moves on: three 8 KiB slices, which stay
// in L1.
const block = 1024

// scalar is STREAM's scale factor.
const scalar = 3.0

// want holds the value every element of a, b and c ends with: the
// serial recurrence of reference STREAM's verification.
var want = func() (w struct{ a, b, c float64 }) {
	w.a, w.b, w.c = 1, 2, 0
	for r := 0; r < reps; r++ {
		w.c = w.a
		w.b = scalar * w.c
		w.c = w.a + w.b
		w.a = w.b + scalar*w.c
	}
	return w
}()

// arrays is one rank's working set.
type arrays struct{ a, b, c []float64 }

// freeList lends array sets to the ranks of one launch. A rank holds a
// set from before its sweep until before its first collective, and
// mpi.Run runs at most GOMAXPROCS ranks until they park in one, so a
// launch allocates at most min(procs, GOMAXPROCS) sets. It is not a
// sync.Pool: a GC empties a pool, and how many sets a launch allocates
// would then depend on GC timing.
type freeList struct {
	n    int // elements per array
	mu   sync.Mutex
	free []*arrays
}

// get takes a free set, or allocates one.
func (f *freeList) get() *arrays {
	f.mu.Lock()
	if k := len(f.free); k > 0 {
		s := f.free[k-1]
		f.free = f.free[:k-1]
		f.mu.Unlock()
		return s
	}
	f.mu.Unlock()
	return &arrays{make([]float64, f.n), make([]float64, f.n), make([]float64, f.n)}
}

// put hands a set back.
func (f *freeList) put(s *arrays) {
	f.mu.Lock()
	f.free = append(f.free, s)
	f.mu.Unlock()
}

// sweep is one rank's numerics: STREAM's set-up and every repetition
// of copy, scale, add and triad, taken block by block, with each block
// checked against the serial recurrence while it is still in cache.
// The kernels are element-wise, so every element sees the same
// operations in the same order as in forty whole-array passes.
type sweep struct {
	set   *arrays
	parts []partial // one per virtual thread
}

// partial is what one virtual thread's chunks found. A reused set
// holds the previous rank's correct values, so only the count shows a
// chunk that was never swept.
type partial struct {
	swept int     // elements taken through the whole recurrence
	worst float64 // largest deviation from want
}

// chunk sweeps [lo,hi) as virtual thread th; it is an omp.RangeBody.
func (s *sweep) chunk(th, lo, hi int) {
	p := &s.parts[th]
	for i := lo; i < hi; i += block {
		j := min(i+block, hi)
		a, b, c := s.set.a[i:j], s.set.b[i:j], s.set.c[i:j]
		fused(a, b, c)
		p.worst = max(p.worst, deviation(a, b, c))
		p.swept += j - i
	}
}

// fused runs the set-up and every repetition of the four STREAM
// kernels on one block, as reference STREAM's array loops.
func fused(a, b, c []float64) {
	b, c = b[:len(a)], c[:len(a)] // drops the bounds checks below
	for i := range a {
		a[i], b[i], c[i] = 1, 2, 0
	}
	for r := 0; r < reps; r++ {
		// copy: c = a
		copy(c, a)
		// scale: b = s*c
		for i := range a {
			b[i] = scalar * c[i]
		}
		// add: c = a + b
		for i := range a {
			c[i] = a[i] + b[i]
		}
		// triad: a = b + s*c
		for i := range a {
			a[i] = b[i] + scalar*c[i]
		}
	}
}

// deviation returns the largest deviation of a block from want, NaN if
// any element is NaN. The per-element pass only sums absolute
// deviations, which is 0 exactly when every one is; only a block that
// deviates is searched for its largest.
func deviation(a, b, c []float64) float64 {
	b, c = b[:len(a)], c[:len(a)]
	var sum float64
	for i := range a {
		sum += math.Abs(a[i]-want.a) + math.Abs(b[i]-want.b) + math.Abs(c[i]-want.c)
	}
	if sum == 0 {
		return 0
	}
	var worst float64
	for i := range a {
		worst = max(worst, math.Abs(a[i]-want.a), math.Abs(b[i]-want.b), math.Abs(c[i]-want.c))
	}
	return worst
}

// verdict folds the partials of a rank's n elements into its check
// value: the largest deviation, or +Inf when some element was not
// swept or deviated by NaN, which the max-reduction over ranks keeps.
func (s *sweep) verdict(n int) float64 {
	swept, worst := 0, 0.0
	for _, p := range s.parts {
		swept += p.swept
		worst = max(worst, p.worst)
	}
	if swept != n || math.IsNaN(worst) {
		return math.Inf(1)
	}
	return worst
}
