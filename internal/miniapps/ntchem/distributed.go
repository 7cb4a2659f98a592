package ntchem

// The aux-distributed algorithm of production RI-MP2: instead of
// replicating the three-center tensor B, each rank stores only its
// slice of the auxiliary dimension and the Gram matrix V = B^T B is
// assembled as an Allreduce of per-rank partial products. This trades
// communication for the O(naux x nov) memory the replicated algorithm
// spends per rank — the standard memory/communication trade-off the
// NTChem papers discuss.

import (
	"fmt"

	"fibersim/internal/miniapps/common"
	"fibersim/internal/mpi"
	"fibersim/internal/omp"
)

// AuxSlice is one rank's share of the auxiliary dimension.
type AuxSlice struct {
	Q0, Q1 int // [Q0, Q1) of the naux index
	// B holds rows Q0..Q1 of the full tensor, same layout as Problem.B.
	B []float64
}

// SliceAux cuts the rank's slice out of the full problem (in a real
// run each rank would generate or read only its slice; here the
// deterministic generator makes that equivalent).
func (p *Problem) SliceAux(rank, procs int) AuxSlice {
	nov := p.NOV()
	q0 := rank * p.NAux / procs
	q1 := (rank + 1) * p.NAux / procs
	return AuxSlice{Q0: q0, Q1: q1, B: p.B[q0*nov : q1*nov]}
}

// GramDistributed assembles rows [r0, r1) of V = B^T B from
// aux-distributed slices: each rank contracts its q-range for the
// requested rows, then the partials are summed in place with an
// Allreduce. Every rank receives the same row block.
func GramDistributed(env *common.Env, p *Problem, slice AuxSlice, r0, r1 int) ([]float64, error) {
	if r0 < 0 || r1 < r0 || r1 > p.NOV() {
		return nil, fmt.Errorf("ntchem: bad row range [%d,%d)", r0, r1)
	}
	nov := p.NOV()
	rows := r1 - r0
	partial := make([]float64, rows*nov)
	sch := omp.Schedule{Kind: omp.Static}
	env.Team.ParallelFor(sch, rows, func(_, r int) {
		ia := r0 + r
		dst := partial[r*nov : (r+1)*nov]
		for q := slice.Q0; q < slice.Q1; q++ {
			bq := slice.B[(q-slice.Q0)*nov : (q-slice.Q0+1)*nov]
			via := bq[ia]
			if via == 0 {
				continue
			}
			for jb := 0; jb < nov; jb++ {
				dst[jb] += via * bq[jb]
			}
		}
	}, nil)
	if err := env.Charge(dgemmKernel(nov, p.NAux),
		float64(rows)*float64(nov)*float64(slice.Q1-slice.Q0)); err != nil {
		return nil, err
	}
	// Sum the aux partials across ranks.
	if err := env.Comm.Allreduce(mpi.OpSum, partial); err != nil {
		return nil, err
	}
	return partial, nil
}
