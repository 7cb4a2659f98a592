// Package modylas reproduces the MODYLAS-mini miniapp (Nagoya U.): a
// classical molecular-dynamics engine whose signature is fast-multipole
// electrostatics on top of cell-list short-range forces. This
// implementation integrates NVE dynamics of an open particle cluster
// with velocity Verlet; forces combine shifted-cutoff Lennard-Jones
// with Coulomb interactions that are computed directly inside a
// 5x5x5 cell neighbourhood (the well-separated criterion) and through
// cell-level multipole expansions (monopole + dipole + quadrupole)
// beyond it — a one-level fast-multipole scheme. Verification compares
// the multipole forces against a direct O(N^2) sum and checks NVE
// energy drift.
package modylas

import (
	"fmt"
	"math"

	"fibersim/internal/core"
	"fibersim/internal/miniapps/common"
	"fibersim/internal/mpi"
	"fibersim/internal/omp"
)

const (
	dt       = 5e-4
	ljEps    = 1.0
	ljSigma  = 0.07
	coulombK = 0.05 // weak charges keep the integrator stable
	steps    = 10
)

// System holds the global particle state (replicated-data MD: every
// rank sees all positions; each rank integrates its own slice).
type System struct {
	N     int
	Box   float64
	Cells int // cells per dimension; cell edge >= LJ cutoff
	X, V  [][3]float64
	Q     []float64 // alternating +-1 charges (neutral)
	Rc    float64
}

// NewSystem places N particles on a jittered cubic lattice.
func NewSystem(n int, cells int, seed int64) *System {
	s := &System{N: n, Box: 1.0, Cells: cells}
	s.Rc = s.Box / float64(cells)
	s.X = make([][3]float64, n)
	s.V = make([][3]float64, n)
	s.Q = make([]float64, n)
	side := int(math.Ceil(math.Cbrt(float64(n))))
	spacing := s.Box / float64(side)
	r := common.NewRNG(seed)
	for i := 0; i < n; i++ {
		ix, iy, iz := i%side, (i/side)%side, i/(side*side)
		for d, v := range []int{ix, iy, iz} {
			s.X[i][d] = (float64(v)+0.5)*spacing + (r.Float64()-0.5)*0.1*spacing
		}
		s.V[i] = [3]float64{r.NormFloat64() * 0.05, r.NormFloat64() * 0.05, r.NormFloat64() * 0.05}
		s.Q[i] = float64(1 - 2*(i%2))
	}
	// Zero the total momentum so the centre of mass stays put.
	var p [3]float64
	for i := range s.V {
		for d := 0; d < 3; d++ {
			p[d] += s.V[i][d]
		}
	}
	for i := range s.V {
		for d := 0; d < 3; d++ {
			s.V[i][d] -= p[d] / float64(n)
		}
	}
	return s
}

// cellOf returns the cell coordinates of position x.
func (s *System) cellOf(x [3]float64) (int, int, int) {
	c := func(v float64) int {
		i := int(v / s.Rc)
		if i >= s.Cells {
			i = s.Cells - 1
		}
		if i < 0 {
			i = 0
		}
		return i
	}
	return c(x[0]), c(x[1]), c(x[2])
}

// cellID flattens cell coordinates; out-of-range coordinates return
// -1 (the cluster is open, cells do not wrap).
func (s *System) cellID(cx, cy, cz int) int {
	m := s.Cells
	if cx < 0 || cx >= m || cy < 0 || cy >= m || cz < 0 || cz >= m {
		return -1
	}
	return cx + m*(cy+m*cz)
}

// buildCells returns the particle list of every cell, each in
// ascending particle order. The lists are capped windows of one
// backing array, filled by a counting sort over the cell ids.
func (s *System) buildCells() [][]int32 {
	nc := s.Cells * s.Cells * s.Cells
	ids := make([]int32, s.N)
	start := make([]int, nc+1)
	for i := range ids {
		id := s.cellID(s.cellOf(s.X[i]))
		ids[i] = int32(id)
		start[id+1]++
	}
	for c := 0; c < nc; c++ {
		start[c+1] += start[c]
	}
	flat := make([]int32, s.N)
	lists := make([][]int32, nc)
	for c := range lists {
		lists[c] = flat[start[c]:start[c]:start[c+1]]
	}
	// Each window's capacity is exactly its cell's count, so append
	// fills it in place.
	for i, id := range ids {
		lists[id] = append(lists[id], int32(i))
	}
	return lists
}

// multipole is a cell's monopole + dipole + traceless quadrupole
// around its centre.
type multipole struct {
	q      float64
	d      [3]float64
	quad   [3][3]float64
	center [3]float64
}

// buildMultipoles computes the expansion of every cell (the P2M phase
// of the FMM).
func (s *System) buildMultipoles(cells [][]int32) []multipole {
	m := s.Cells
	out := make([]multipole, len(cells))
	for cz := 0; cz < m; cz++ {
		for cy := 0; cy < m; cy++ {
			for cx := 0; cx < m; cx++ {
				id := s.cellID(cx, cy, cz)
				mp := &out[id]
				mp.center = [3]float64{
					(float64(cx) + 0.5) * s.Rc,
					(float64(cy) + 0.5) * s.Rc,
					(float64(cz) + 0.5) * s.Rc,
				}
				for _, pi := range cells[id] {
					q := s.Q[pi]
					mp.q += q
					var rv [3]float64
					var r2 float64
					for d := 0; d < 3; d++ {
						rv[d] = s.X[pi][d] - mp.center[d]
						mp.d[d] += q * rv[d]
						r2 += rv[d] * rv[d]
					}
					for a := 0; a < 3; a++ {
						for b := 0; b < 3; b++ {
							mp.quad[a][b] += q * 3 * rv[a] * rv[b] / 2
						}
						mp.quad[a][a] -= q * r2 / 2
					}
				}
			}
		}
	}
	return out
}

// ljForce accumulates the shifted-cutoff LJ force and energy between i
// and j (j's position given); returns (fx,fy,fz,energy).
func (s *System) pairLJCoulomb(xi [3]float64, qi float64, xj [3]float64, qj float64) (f [3]float64, u float64) {
	var d [3]float64
	var r2 float64
	for k := 0; k < 3; k++ {
		d[k] = xi[k] - xj[k]
		r2 += d[k] * d[k]
	}
	if r2 == 0 {
		return
	}
	rc2 := s.Rc * s.Rc
	r := math.Sqrt(r2)
	inv := 1 / r
	// Coulomb (direct near-field part).
	uc := coulombK * qi * qj * inv
	fc := uc * inv * inv // k q q / r^3, multiplied by d below
	u += uc
	for k := 0; k < 3; k++ {
		f[k] += fc * d[k]
	}
	// LJ inside the cutoff, shifted to zero at rc.
	if r2 < rc2 {
		s2 := ljSigma * ljSigma / r2
		s6 := s2 * s2 * s2
		s12 := s6 * s6
		sc2 := ljSigma * ljSigma / rc2
		sc6 := sc2 * sc2 * sc2
		shift := 4 * ljEps * (sc6*sc6 - sc6)
		u += 4*ljEps*(s12-s6) - shift
		flj := 24 * ljEps * (2*s12 - s6) / r2
		for k := 0; k < 3; k++ {
			f[k] += flj * d[k]
		}
	}
	return
}

// farField accumulates the multipole contribution of cell mp on a
// particle at x with charge q.
func farField(s *System, x [3]float64, q float64, mp *multipole) (f [3]float64, u float64) {
	var d [3]float64
	var r2 float64
	for k := 0; k < 3; k++ {
		d[k] = x[k] - mp.center[k]
		r2 += d[k] * d[k]
	}
	if r2 == 0 {
		return
	}
	r := math.Sqrt(r2)
	inv := 1 / r
	inv3 := inv * inv * inv
	// Monopole.
	u += coulombK * q * mp.q * inv
	for k := 0; k < 3; k++ {
		f[k] += coulombK * q * mp.q * inv3 * d[k]
	}
	// Dipole: U = k q (D . rhat) / r^2; F = k q (3 (D.rhat) rhat - D)/r^3.
	var ddot float64
	for k := 0; k < 3; k++ {
		ddot += mp.d[k] * d[k] * inv
	}
	u += coulombK * q * ddot * inv * inv
	for k := 0; k < 3; k++ {
		f[k] += coulombK * q * (3*ddot*d[k]*inv - mp.d[k]) * inv3
	}
	// Quadrupole: U = k q (d.Q.d)/r^5; F = k q [5 (d.Q.d) d / r^7 - 2 (Q d)/r^5].
	var qd [3]float64
	var dqd float64
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			qd[a] += mp.quad[a][b] * d[b]
		}
		dqd += d[a] * qd[a]
	}
	inv5 := inv3 * inv * inv
	inv7 := inv5 * inv * inv
	u += coulombK * q * dqd * inv5
	for k := 0; k < 3; k++ {
		f[k] += coulombK * q * (5*dqd*d[k]*inv7 - 2*qd[k]*inv5)
	}
	return
}

// Forces computes force and potential energy for particles [lo,hi)
// using cells+multipoles; team parallelizes the sweep.
func (s *System) Forces(team *omp.Team, sch omp.Schedule, lo, hi int, f [][3]float64, uPart []float64) (nearPairs, farCells int64) {
	cells := s.buildCells()
	mps := s.buildMultipoles(cells)
	m := s.Cells

	counts := make([]int64, team.Threads())
	farCounts := make([]int64, team.Threads())
	team.ParallelFor(sch, hi-lo, func(th, rel int) {
		i := lo + rel
		xi := s.X[i]
		qi := s.Q[i]
		cx, cy, cz := s.cellOf(xi)
		var fi [3]float64
		var ui float64
		var near, far int64
		// Near field: the 5x5x5 neighbourhood (well-separated criterion
		// for the multipole expansion), direct.
		for dz := -2; dz <= 2; dz++ {
			for dy := -2; dy <= 2; dy++ {
				for dx := -2; dx <= 2; dx++ {
					id := s.cellID(cx+dx, cy+dy, cz+dz)
					if id < 0 {
						continue
					}
					for _, pj := range cells[id] {
						j := int(pj)
						if j == i {
							continue
						}
						pf, pu := s.pairLJCoulomb(xi, qi, s.X[j], s.Q[j])
						for k := 0; k < 3; k++ {
							fi[k] += pf[k]
						}
						ui += pu / 2 // pair energy split between partners
						near++
					}
				}
			}
		}
		// Far field: all other cells via multipoles.
		for cz2 := 0; cz2 < m; cz2++ {
			for cy2 := 0; cy2 < m; cy2++ {
				for cx2 := 0; cx2 < m; cx2++ {
					if abs(cx2-cx) <= 2 && abs(cy2-cy) <= 2 && abs(cz2-cz) <= 2 {
						continue
					}
					id := s.cellID(cx2, cy2, cz2)
					pf, pu := farField(s, xi, qi, &mps[id])
					for k := 0; k < 3; k++ {
						fi[k] += pf[k]
					}
					ui += pu / 2
					far++
				}
			}
		}
		f[rel] = fi
		uPart[rel] = ui
		// One write per particle: the team's counters share cache lines.
		counts[th] += near
		farCounts[th] += far
	}, nil)
	for _, c := range counts {
		nearPairs += c
	}
	for _, c := range farCounts {
		farCells += c
	}
	return nearPairs, farCells
}

// DirectForces is the O(N^2) reference (minimum-image direct sum of the
// same potential, no multipole approximation).
func (s *System) DirectForces(i int) (f [3]float64, u float64) {
	for j := 0; j < s.N; j++ {
		if j == i {
			continue
		}
		pf, pu := s.pairLJCoulomb(s.X[i], s.Q[i], s.X[j], s.Q[j])
		for k := 0; k < 3; k++ {
			f[k] += pf[k]
		}
		u += pu / 2
	}
	return
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// kernels

func nearKernel(n int) core.Kernel {
	return core.MustKernel(core.Kernel{
		Name:              "p2p-near",
		FlopsPerIter:      45, // LJ + Coulomb per pair
		FMAFrac:           0.5,
		LoadBytesPerIter:  7 * 8, // neighbour position + charge, cell list
		StoreBytesPerIter: 0,
		VectorizableFrac:  0.85,
		AutoVecFrac:       0.40, // cell-list gathers vectorize poorly as-is
		DepChainPenalty:   0.9,  // rsqrt chains
		Pattern:           core.PatternGather,
		WorkingSetBytes:   int64(n) * 56,
	})
}

func farKernel(n int) core.Kernel {
	return core.MustKernel(core.Kernel{
		Name:              "m2p-far",
		FlopsPerIter:      80, // monopole+dipole+quadrupole evaluation
		FMAFrac:           0.6,
		LoadBytesPerIter:  7 * 8,
		StoreBytesPerIter: 0,
		VectorizableFrac:  0.9,
		AutoVecFrac:       0.6,
		DepChainPenalty:   0.6,
		Pattern:           core.PatternStrided,
		WorkingSetBytes:   int64(n) * 56,
	})
}

func verletKernel(n int) core.Kernel {
	return core.MustKernel(core.Kernel{
		Name:              "verlet-integrate",
		FlopsPerIter:      18,
		FMAFrac:           1,
		LoadBytesPerIter:  9 * 8,
		StoreBytesPerIter: 6 * 8,
		VectorizableFrac:  1,
		AutoVecFrac:       0.95,
		Pattern:           core.PatternStream,
		WorkingSetBytes:   int64(n) * 72,
	})
}

// App is the MODYLAS miniapp.
type App struct{}

// Name returns the registry key.
func (App) Name() string { return "modylas" }

// Description returns the Table 2 entry.
func (App) Description() string {
	return "Molecular dynamics, cell-list LJ + multipole electrostatics (MODYLAS-mini, Nagoya U.)"
}

// sysFor returns (particles, cells) per size.
func sysFor(size common.Size) (n, cells int) {
	switch size {
	case common.SizeTest:
		return 256, 6
	case common.SizeSmall:
		return 2048, 8
	default:
		return 6144, 10
	}
}

// Kernels implements common.App.
func (App) Kernels(size common.Size) []core.Kernel {
	n, _ := sysFor(size)
	return []core.Kernel{nearKernel(n), farKernel(n), verletKernel(n)}
}

// Run implements common.App.
func (a App) Run(cfg common.RunConfig) (common.Result, error) {
	cfg = cfg.Normalized()
	n, cells := sysFor(cfg.Size)

	var o outputs
	res, err := common.LaunchApp(a.Name(), cfg, &o, func(env *common.Env) error {
		sys := NewSystem(n, cells, cfg.Seed)
		sch := omp.Schedule{Kind: omp.Dynamic, Chunk: 8} // MD imbalance wants dynamic
		procs := env.Procs()
		lo := env.Rank() * n / procs
		hi := (env.Rank() + 1) * n / procs
		mine := hi - lo

		kN := nearKernel(n)
		kF := farKernel(n)
		kV := verletKernel(n)

		f := make([][3]float64, mine)
		u := make([]float64, mine)
		vs := NewVerletState(lo, hi)
		var flops float64

		energy := func() (float64, error) {
			var local float64
			for r := 0; r < mine; r++ {
				i := lo + r
				local += u[r] + 0.5*(sys.V[i][0]*sys.V[i][0]+sys.V[i][1]*sys.V[i][1]+sys.V[i][2]*sys.V[i][2])
			}
			return env.Comm.AllreduceScalar(mpi.OpSum, local)
		}

		computeForces := func() error {
			np, fc, _ := sys.ForcesVerlet(env.Team, sch, vs, f, u)
			flops += 45*float64(np) + 80*float64(fc)
			if err := env.Charge(kN, float64(np)); err != nil {
				return err
			}
			return env.Charge(kF, float64(fc))
		}

		// syncPositions gathers every rank's updated slice.
		syncPositions := func() error {
			flat := make([]float64, mine*3)
			for r := 0; r < mine; r++ {
				flat[3*r], flat[3*r+1], flat[3*r+2] = sys.X[lo+r][0], sys.X[lo+r][1], sys.X[lo+r][2]
			}
			all, err := env.Comm.Allgather(flat)
			if err != nil {
				return err
			}
			for rk := 0; rk < procs; rk++ {
				base := rk * n / procs
				for r := 0; r < len(all[rk])/3; r++ {
					sys.X[base+r] = [3]float64{all[rk][3*r], all[rk][3*r+1], all[rk][3*r+2]}
				}
			}
			return nil
		}

		if err := computeForces(); err != nil {
			return err
		}
		e0, err := energy()
		if err != nil {
			return err
		}

		for step := 0; step < steps; step++ {
			// Velocity Verlet: half kick, drift, re-force, half kick.
			env.Team.ParallelFor(sch, mine, func(_, r int) {
				i := lo + r
				for k := 0; k < 3; k++ {
					sys.V[i][k] += 0.5 * dt * f[r][k]
					sys.X[i][k] += dt * sys.V[i][k]
				}
			}, nil)
			flops += 18 * float64(mine)
			if err := env.Charge(kV, float64(mine)); err != nil {
				return err
			}
			if err := syncPositions(); err != nil {
				return err
			}
			if err := computeForces(); err != nil {
				return err
			}
			env.Team.ParallelFor(sch, mine, func(_, r int) {
				i := lo + r
				for k := 0; k < 3; k++ {
					sys.V[i][k] += 0.5 * dt * f[r][k]
				}
			}, nil)
			if err := env.Charge(kV, float64(mine)/2); err != nil {
				return err
			}
		}

		e1, err := energy()
		if err != nil {
			return err
		}
		fl, err := env.Comm.AllreduceScalar(mpi.OpSum, flops)
		if err != nil {
			return err
		}
		if env.Rank() == 0 {
			drift := math.Abs(e1-e0) / math.Abs(e0)
			o = outputs{drift: drift, flops: fl, verified: drift < 0.02 && !math.IsNaN(e1)}
		}
		return nil
	})
	if err != nil {
		return common.Result{}, fmt.Errorf("modylas: %w", err)
	}

	out := common.FinishResult(a.Name(), cfg, res)
	out.Flops = o.flops
	out.Check = o.drift
	out.Verified = o.verified
	if out.Time > 0 {
		out.Figure = float64(n) * steps / out.Time / 1e6
		out.FigureUnit = "Mparticle-steps/s"
	}
	return out, nil
}

// outputs are what a run's numerics decide: the relative energy drift,
// the node's flops and the verdict on the final energy.
type outputs struct {
	drift, flops float64
	verified     bool
}

func init() { common.Register(App{}) }
