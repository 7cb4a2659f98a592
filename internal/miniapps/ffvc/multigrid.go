package ffvc

// A two-level geometric multigrid V-cycle for the pressure Poisson
// equation — the solver upgrade the FFVC family ships alongside plain
// SOR. Red-black SOR smooths on the fine voxel grid, the residual is
// restricted to a 2x-coarsened grid (still slab-decomposed over the
// same ranks), relaxed there where the error's smooth components decay
// quickly, and the correction is prolonged back. The tests pin the
// textbook property: far fewer fine-grid-sweep equivalents to reach a
// given residual than SOR alone.

import (
	"fmt"
	"math"

	"fibersim/internal/mpi"
)

// mgState holds the coarse-grid scratch fields of one rank.
type mgState struct {
	nxc, nyc int // coarse extents
	nzc      int // coarse local slab
	pc, rc   []float64
}

// coarseIdx addresses a coarse cell with local kc in [-1, nzc].
func (m *mgState) coarseIdx(i, j, k int) int { return i + m.nxc*(j+m.nyc*(k+1)) }

// newMGState validates that the grid coarsens cleanly: even global
// extents and an even local slab on every rank.
func (r *runner) newMGState() (*mgState, error) {
	g := r.st.g
	if g.NX%2 != 0 || g.NY%2 != 0 || g.NZloc%2 != 0 {
		return nil, fmt.Errorf("ffvc: grid %dx%dx%d (local NZ %d) does not coarsen by 2",
			g.NX, g.NY, g.NZ, g.NZloc)
	}
	m := &mgState{nxc: g.NX / 2, nyc: g.NY / 2, nzc: g.NZloc / 2}
	size := m.nxc * m.nyc * (m.nzc + 2)
	m.pc = make([]float64, size)
	m.rc = make([]float64, size)
	return m, nil
}

// exchangeCoarse swaps the coarse halo planes with the z-neighbours
// (mirroring at the global boundaries, like the fine exchange). Planes
// are sent from and received into the field in place.
func (r *runner) exchangeCoarse(m *mgState, f []float64, tag int) error {
	g := r.st.g
	sv := m.nxc * m.nyc
	plane := func(k int) []float64 {
		return f[m.coarseIdx(0, 0, k) : m.coarseIdx(0, 0, k)+sv]
	}
	c := r.env.Comm
	if g.Rank < g.Procs-1 {
		if err := c.SendrecvInto(g.Rank+1, tag, plane(m.nzc-1), g.Rank+1, tag+1000, plane(m.nzc)); err != nil {
			return err
		}
	} else {
		copy(plane(m.nzc), plane(m.nzc-1))
	}
	if g.Rank > 0 {
		if err := c.SendrecvInto(g.Rank-1, tag+1000, plane(0), g.Rank-1, tag, plane(-1)); err != nil {
			return err
		}
	} else {
		copy(plane(-1), plane(0))
	}
	return nil
}

// residual computes r = rhs - A p on the fine interior (A is the
// compact Laplacian /h^2 the SOR relaxes); p halos must be current.
func (r *runner) residual(res []float64) error {
	g := r.st.g
	s := r.st
	invh2 := 1 / (g.h * g.h)
	r.env.Team.ParallelFor(r.sch, g.LocalVol(), func(_, lin int) {
		i := lin % g.NX
		j := (lin / g.NX) % g.NY
		k := lin / (g.NX * g.NY)
		gk := g.GlobalK(k)
		id := g.Idx(i, j, k)
		if !g.interior(i, j, gk) {
			res[id] = 0
			return
		}
		lap := (s.p[g.Idx(i+1, j, k)] + s.p[g.Idx(i-1, j, k)] +
			s.p[g.Idx(i, j+1, k)] + s.p[g.Idx(i, j-1, k)] +
			s.p[g.Idx(i, j, k+1)] + s.p[g.Idx(i, j, k-1)] - 6*s.p[id]) * invh2
		res[id] = s.div[id] - lap
	}, nil)
	r.flops += 10 * float64(g.LocalVol())
	return r.env.Charge(r.kS, float64(g.LocalVol()))
}

// restrictTo averages 2x2x2 fine residual blocks into the coarse rhs.
func (r *runner) restrictTo(m *mgState, fine []float64) {
	g := r.st.g
	r.env.Team.ParallelFor(r.sch, m.nxc*m.nyc*m.nzc, func(_, lin int) {
		i := lin % m.nxc
		j := (lin / m.nxc) % m.nyc
		k := lin / (m.nxc * m.nyc)
		var sum float64
		for dz := 0; dz < 2; dz++ {
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					sum += fine[g.Idx(2*i+dx, 2*j+dy, 2*k+dz)]
				}
			}
		}
		m.rc[m.coarseIdx(i, j, k)] = sum / 8
	}, nil)
}

// coarseInterior reports whether a coarse cell is away from the global
// boundary.
func (r *runner) coarseInterior(m *mgState, i, j, k int) bool {
	g := r.st.g
	gkc := g.Rank*m.nzc + k
	nzcGlobal := g.NZ / 2
	return i > 0 && i < m.nxc-1 && j > 0 && j < m.nyc-1 && gkc > 0 && gkc < nzcGlobal-1
}

// coarseSOR relaxes A_2h e = r_2h with red-black sweeps (the coarse
// Laplacian uses spacing 2h).
func (r *runner) coarseSOR(m *mgState, sweeps int) error {
	g := r.st.g
	h2c := (2 * g.h) * (2 * g.h)
	for s := 0; s < sweeps; s++ {
		for color := 0; color < 2; color++ {
			if err := r.exchangeCoarse(m, m.pc, 70); err != nil {
				return err
			}
			r.env.Team.ParallelFor(r.sch, m.nxc*m.nyc*m.nzc, func(_, lin int) {
				i := lin % m.nxc
				j := (lin / m.nxc) % m.nyc
				k := lin / (m.nxc * m.nyc)
				gkc := g.Rank*m.nzc + k
				if (i+j+gkc)%2 != color || !r.coarseInterior(m, i, j, k) {
					return
				}
				id := m.coarseIdx(i, j, k)
				nb := m.pc[m.coarseIdx(i+1, j, k)] + m.pc[m.coarseIdx(i-1, j, k)] +
					m.pc[m.coarseIdx(i, j+1, k)] + m.pc[m.coarseIdx(i, j-1, k)] +
					m.pc[m.coarseIdx(i, j, k+1)] + m.pc[m.coarseIdx(i, j, k-1)]
				pNew := (nb - h2c*m.rc[id]) / 6
				m.pc[id] += sorW * (pNew - m.pc[id])
			}, nil)
			// Coarse sweeps cost 1/8 of a fine sweep.
			if err := r.env.Charge(r.kS, float64(g.LocalVol())/16); err != nil {
				return err
			}
		}
	}
	return nil
}

// prolongAdd interpolates the coarse correction trilinearly onto the
// fine grid (cell-centred 3/4-1/4 weights per dimension; injection
// would plant O(e/h^2) jump residuals and destroy the cycle). Coarse
// z-halos must be current.
func (r *runner) prolongAdd(m *mgState) {
	g := r.st.g
	s := r.st
	// clamp reads a coarse value with x/y clamped at the global
	// boundary (homogeneous Neumann extension of the correction).
	clamp := func(i, j, k int) float64 {
		if i < 0 {
			i = 0
		}
		if i >= m.nxc {
			i = m.nxc - 1
		}
		if j < 0 {
			j = 0
		}
		if j >= m.nyc {
			j = m.nyc - 1
		}
		// k in [-1, nzc]: halos hold the neighbour ranks' planes; the
		// global top/bottom were mirrored by exchangeCoarse.
		return m.pc[m.coarseIdx(i, j, k)]
	}
	r.env.Team.ParallelFor(r.sch, g.LocalVol(), func(_, lin int) {
		fi := lin % g.NX
		fj := (lin / g.NX) % g.NY
		fk := lin / (g.NX * g.NY)
		if !g.interior(fi, fj, g.GlobalK(fk)) {
			return
		}
		ci, cj, ck := fi/2, fj/2, fk/2
		// Neighbour direction per axis: child 0 looks at -1, child 1 at +1.
		di, dj, dk := 2*(fi%2)-1, 2*(fj%2)-1, 2*(fk%2)-1
		var e float64
		for bz := 0; bz < 2; bz++ {
			wz := 0.75
			kz := ck
			if bz == 1 {
				wz = 0.25
				kz = ck + dk
			}
			for by := 0; by < 2; by++ {
				wy := 0.75
				jy := cj
				if by == 1 {
					wy = 0.25
					jy = cj + dj
				}
				for bx := 0; bx < 2; bx++ {
					wx := 0.75
					ix := ci
					if bx == 1 {
						wx = 0.25
						ix = ci + di
					}
					e += wx * wy * wz * clamp(ix, jy, kz)
				}
			}
		}
		s.p[g.Idx(fi, fj, fk)] += e
	}, nil)
	r.flops += 15 * float64(g.LocalVol())
}

// VCycle runs one two-level V-cycle on the pressure system: nPre
// fine smoothing sweeps, a coarse correction with nCoarse sweeps, and
// nPost fine sweeps.
func (r *runner) VCycle(m *mgState, nPre, nCoarse, nPost int) error {
	smooth := func(n int) error {
		for s := 0; s < n; s++ {
			for color := 0; color < 2; color++ {
				if err := r.exchange(r.st.p, 30); err != nil {
					return err
				}
				if err := r.sorColor(color); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := smooth(nPre); err != nil {
		return err
	}
	if err := r.exchange(r.st.p, 31); err != nil {
		return err
	}
	res := r.st.g.field()
	if err := r.residual(res); err != nil {
		return err
	}
	r.restrictTo(m, res)
	for i := range m.pc {
		m.pc[i] = 0
	}
	if err := r.coarseSOR(m, nCoarse); err != nil {
		return err
	}
	if err := r.exchangeCoarse(m, m.pc, 72); err != nil {
		return err
	}
	r.prolongAdd(m)
	return smooth(nPost)
}

// ResidualNorm returns the global L2 norm of the pressure residual.
func (r *runner) ResidualNorm() (float64, error) {
	if err := r.exchange(r.st.p, 32); err != nil {
		return 0, err
	}
	res := r.st.g.field()
	if err := r.residual(res); err != nil {
		return 0, err
	}
	g := r.st.g
	var local float64
	for k := 0; k < g.NZloc; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				v := res[g.Idx(i, j, k)]
				local += v * v
			}
		}
	}
	total, err := r.env.Comm.AllreduceScalar(mpi.OpSum, local)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(total), nil
}
