package omp

import (
	"fmt"
	"testing"
)

// The omp layer's per-operation costs: a 64 Ki-element loop body
// dispatched per element, per chunk, and as a plain loop (the floor),
// and an empty-body region of 1 and 48 threads (fork/join alone).

const benchElems = 1 << 16

func reportPerElem(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchElems), "ns/elem")
}

func BenchmarkParallelFor(b *testing.B) {
	tm := team(b, []int{0})
	x := make([]float64, benchElems)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.ParallelFor(Schedule{}, len(x), func(_, i int) { x[i] = x[i]*0.5 + 1 }, nil)
	}
	reportPerElem(b)
}

func BenchmarkParallelRange(b *testing.B) {
	tm := team(b, []int{0})
	x := make([]float64, benchElems)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.ParallelRange(Schedule{}, len(x), func(_, lo, hi int) {
			y := x[lo:hi]
			for i := range y {
				y[i] = y[i]*0.5 + 1
			}
		}, nil)
	}
	reportPerElem(b)
}

func BenchmarkPlainLoop(b *testing.B) {
	x := make([]float64, benchElems)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for i := range x {
			x[i] = x[i]*0.5 + 1
		}
	}
	reportPerElem(b)
}

func BenchmarkRegion(b *testing.B) {
	empty := func(int, int) {}
	for _, k := range []int{1, 48} {
		b.Run(fmt.Sprintf("t%d", k), func(b *testing.B) {
			tm := team(b, coresRange(k, 1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tm.ParallelFor(Schedule{}, k, empty, nil)
			}
		})
	}
}
