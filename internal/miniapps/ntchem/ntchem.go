// Package ntchem reproduces the NTChem-mini miniapp (RIKEN): the
// RI-MP2 correlation-energy kernel of the NTChem quantum-chemistry
// package. Three-center integrals B[P][ia] are contracted into
// four-center integrals (ia|jb) = sum_P B[P][ia] B[P][jb] with blocked
// matrix multiplication — the DGEMM core that makes the original code
// compute-bound — and the MP2 pair energies are accumulated with the
// usual spin-adapted formula.
package ntchem

import (
	"fmt"
	"math"

	"fibersim/internal/core"
	"fibersim/internal/miniapps/common"
	"fibersim/internal/mpi"
	"fibersim/internal/omp"
)

// Problem fixes one RI-MP2 instance.
type Problem struct {
	NOcc, NVirt, NAux int
	// B[p*nov+ia]: three-center integrals, nov = NOcc*NVirt.
	B []float64
	// EpsO, EpsV: orbital energies (occupied negative, virtual positive).
	EpsO, EpsV []float64
}

// NOV returns the compound occupied-virtual dimension.
func (p *Problem) NOV() int { return p.NOcc * p.NVirt }

// NewProblem generates a deterministic instance.
func NewProblem(nocc, nvirt, naux int, seed int64) *Problem {
	r := common.NewRNG(seed)
	p := &Problem{NOcc: nocc, NVirt: nvirt, NAux: naux}
	nov := p.NOV()
	p.B = make([]float64, naux*nov)
	for i := range p.B {
		// Decaying magnitudes mimic the sparsity structure of fitted
		// integrals.
		p.B[i] = (r.Float64()*2 - 1) / (1 + 0.02*float64(i%nov))
	}
	p.EpsO = make([]float64, nocc)
	p.EpsV = make([]float64, nvirt)
	for i := range p.EpsO {
		p.EpsO[i] = -2 + 1.5*float64(i)/float64(nocc) // [-2, -0.5)
	}
	for a := range p.EpsV {
		p.EpsV[a] = 0.5 + 2*float64(a)/float64(nvirt) // [0.5, 2.5)
	}
	return p
}

// MP2Direct evaluates the correlation energy naively (reference for
// verification; O(nocc^2 nvirt^2 naux)).
func (p *Problem) MP2Direct() float64 {
	nov := p.NOV()
	integral := func(i, a, j, b int) float64 {
		ia := i*p.NVirt + a
		jb := j*p.NVirt + b
		var s float64
		for q := 0; q < p.NAux; q++ {
			s += p.B[q*nov+ia] * p.B[q*nov+jb]
		}
		return s
	}
	var e2 float64
	for i := 0; i < p.NOcc; i++ {
		for j := 0; j < p.NOcc; j++ {
			for a := 0; a < p.NVirt; a++ {
				for b := 0; b < p.NVirt; b++ {
					iajb := integral(i, a, j, b)
					ibja := integral(i, b, j, a)
					denom := p.EpsO[i] + p.EpsO[j] - p.EpsV[a] - p.EpsV[b]
					e2 += iajb * (2*iajb - ibja) / denom
				}
			}
		}
	}
	return e2
}

// blockDGEMM computes C[r0:r1) = A^T A rows of the Gram matrix
// V = B^T B (V is nov x nov), with cache blocking over the aux
// dimension. rows are V-row indices (compound ia).
func (p *Problem) blockRows(team *omp.Team, sch omp.Schedule, r0, r1 int) []float64 {
	nov := p.NOV()
	rows := r1 - r0
	out := make([]float64, rows*nov)
	const pBlock = 64
	team.ParallelFor(sch, rows, func(_, r int) {
		ia := r0 + r
		dst := out[r*nov : (r+1)*nov]
		for q0 := 0; q0 < p.NAux; q0 += pBlock {
			q1 := q0 + pBlock
			if q1 > p.NAux {
				q1 = p.NAux
			}
			for q := q0; q < q1; q++ {
				bq := p.B[q*nov : (q+1)*nov]
				via := bq[ia]
				if via == 0 {
					continue
				}
				for jb := 0; jb < nov; jb++ {
					dst[jb] += via * bq[jb]
				}
			}
		}
	}, nil)
	return out
}

// kernels

func dgemmKernel(nov, naux int) core.Kernel {
	return core.MustKernel(core.Kernel{
		Name:              "ri-dgemm",
		FlopsPerIter:      2, // one MAC
		FMAFrac:           1,
		LoadBytesPerIter:  2.0, // cache-blocked: ~0.25 loads per MAC
		StoreBytesPerIter: 0.5,
		VectorizableFrac:  1,
		AutoVecFrac:       0.95,
		DepChainPenalty:   0.1,
		Pattern:           core.PatternStream,
		WorkingSetBytes:   int64(64 * nov * 8), // aux-block slice of B
	})
}

func pairEnergyKernel(nov int) core.Kernel {
	return core.MustKernel(core.Kernel{
		Name:              "mp2-pair-energy",
		FlopsPerIter:      7, // 2 mul, 1 sub-denominator path, division amortized
		FMAFrac:           0.4,
		LoadBytesPerIter:  16,
		StoreBytesPerIter: 0,
		VectorizableFrac:  0.9,
		AutoVecFrac:       0.7,
		DepChainPenalty:   0.5, // the division chain
		Pattern:           core.PatternStrided,
		WorkingSetBytes:   int64(nov * 8),
	})
}

// App is the NTChem miniapp.
type App struct{}

// Name returns the registry key.
func (App) Name() string { return "ntchem" }

// Description returns the Table 2 entry.
func (App) Description() string {
	return "RI-MP2 correlation energy, blocked DGEMM contraction (NTChem-mini, RIKEN)"
}

// problemFor returns dimensions per size.
func problemFor(size common.Size) (nocc, nvirt, naux int) {
	switch size {
	case common.SizeTest:
		return 6, 12, 48
	case common.SizeSmall:
		return 12, 32, 192
	default:
		return 16, 48, 256
	}
}

// Kernels implements common.App.
func (App) Kernels(size common.Size) []core.Kernel {
	nocc, nvirt, naux := problemFor(size)
	return []core.Kernel{dgemmKernel(nocc*nvirt, naux), pairEnergyKernel(nocc * nvirt)}
}

// Run implements common.App. Work is distributed by V-matrix row
// blocks (compound ia indices) over ranks.
func (a App) Run(cfg common.RunConfig) (common.Result, error) {
	cfg = cfg.Normalized()
	nocc, nvirt, naux := problemFor(cfg.Size)

	var o outputs
	res, err := common.LaunchApp(a.Name(), cfg, &o, func(env *common.Env) error {
		p := NewProblem(nocc, nvirt, naux, cfg.Seed)
		nov := p.NOV()
		sch := omp.Schedule{Kind: omp.Static}

		// Row range of V owned by this rank.
		procs := env.Procs()
		r0 := env.Rank() * nov / procs
		r1 := (env.Rank() + 1) * nov / procs
		rows := r1 - r0

		kG := dgemmKernel(nov, naux)
		kE := pairEnergyKernel(nov)

		// Contraction: V rows r0..r1.
		v := p.blockRows(env.Team, sch, r0, r1)
		macs := float64(rows) * float64(nov) * float64(naux)
		if err := env.Charge(kG, macs); err != nil {
			return err
		}

		// Pair energies over owned rows.
		partial := make([]float64, rows)
		env.Team.ParallelFor(sch, rows, func(_, r int) {
			ia := r0 + r
			i := ia / nvirt
			aa := ia % nvirt
			var acc float64
			for j := 0; j < nocc; j++ {
				for b := 0; b < nvirt; b++ {
					jb := j*nvirt + b
					iajb := v[r*nov+jb]
					// (ib|ja) lives on row ib = i*nvirt+b at column ja.
					// Recompute it from B to stay rank-local.
					ib := i*nvirt + b
					ja := j*nvirt + aa
					var ibja float64
					for q := 0; q < naux; q++ {
						ibja += p.B[q*nov+ib] * p.B[q*nov+ja]
					}
					denom := p.EpsO[i] + p.EpsO[j] - p.EpsV[aa] - p.EpsV[b]
					acc += iajb * (2*iajb - ibja) / denom
				}
			}
			partial[r] = acc
		}, nil)
		var local float64
		for _, x := range partial {
			local += x
		}
		// The exchange recomputation costs another nov*naux MACs per row.
		if err := env.Charge(kG, float64(rows)*float64(nov)*float64(naux)); err != nil {
			return err
		}
		if err := env.Charge(kE, float64(rows)*float64(nov)); err != nil {
			return err
		}

		total, err := env.Comm.AllreduceScalar(mpi.OpSum, local)
		if err != nil {
			return err
		}
		if env.Rank() == 0 {
			o = outputs{e2: total, flops: 2*2*float64(nov)*float64(nov)*float64(naux) + 7*float64(nov)*float64(nov)}
		}
		return nil
	})
	if err != nil {
		return common.Result{}, fmt.Errorf("ntchem: %w", err)
	}

	out := common.FinishResult(a.Name(), cfg, res)
	out.Flops = o.flops
	out.Check = o.e2
	// MP2 correlation energy is strictly negative and finite.
	out.Verified = o.e2 < 0 && !math.IsNaN(o.e2) && !math.IsInf(o.e2, 0)
	out.Figure = out.GFlops()
	out.FigureUnit = "Gflop/s"
	return out, nil
}

// outputs are what a run's numerics decide: the MP2 correlation energy
// and the node's flops.
type outputs struct {
	e2, flops float64
}

func init() { common.Register(App{}) }
