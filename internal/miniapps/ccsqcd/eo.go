package ccsqcd

// Even-odd (red-black) preconditioning, the solver scheme of the
// production CCS QCD code. Writing the operator in site-parity blocks
//
//	D = [ A_ee  H_eo ]        A = site-local (identity + clover)
//	    [ H_oe  A_oo ]        H = the hopping term
//
// the odd sites are eliminated exactly:
//
//	S x_e = b_e - H_eo A_oo^{-1} b_o,   S = A_ee - H_eo A_oo^{-1} H_oe
//	x_o   = A_oo^{-1} (b_o - H_oe x_e)
//
// BiCGStab then runs on the even-site system S x_e = b'_e, which is
// better conditioned and half the size; the clover blocks A_oo are
// site-local 12x12 matrices inverted once at setup.

import (
	"fmt"
	"math"
)

// block12 is a dense 12x12 complex matrix in row-major order (spin
// major: index = spin*3 + color).
type block12 [144]complex128

// mulVec applies the block to a 12-component spinor; dst and src may
// alias (the result is buffered).
func (m *block12) mulVec(dst, src []complex128) {
	var out [12]complex128
	for r := 0; r < 12; r++ {
		var s complex128
		row := m[r*12 : (r+1)*12]
		for c := 0; c < 12; c++ {
			s += row[c] * src[c]
		}
		out[r] = s
	}
	copy(dst, out[:])
}

// invert12 computes the inverse of a by Gauss-Jordan with partial
// pivoting.
func invert12(a block12) (block12, error) {
	var inv block12
	for i := 0; i < 12; i++ {
		inv[i*12+i] = 1
	}
	for col := 0; col < 12; col++ {
		p := col
		best := cabs(a[col*12+col])
		for r := col + 1; r < 12; r++ {
			if v := cabs(a[r*12+col]); v > best {
				best, p = v, r
			}
		}
		if best < 1e-13 {
			return inv, fmt.Errorf("ccsqcd: singular clover block")
		}
		if p != col {
			for j := 0; j < 12; j++ {
				a[col*12+j], a[p*12+j] = a[p*12+j], a[col*12+j]
				inv[col*12+j], inv[p*12+j] = inv[p*12+j], inv[col*12+j]
			}
		}
		piv := a[col*12+col]
		for j := 0; j < 12; j++ {
			a[col*12+j] /= piv
			inv[col*12+j] /= piv
		}
		for r := 0; r < 12; r++ {
			if r == col {
				continue
			}
			f := a[r*12+col]
			if f == 0 {
				continue
			}
			for j := 0; j < 12; j++ {
				a[r*12+j] -= f * a[col*12+j]
				inv[r*12+j] -= f * inv[col*12+j]
			}
		}
	}
	return inv, nil
}

func cabs(c complex128) float64 {
	return math.Hypot(real(c), imag(c))
}

// localBlock builds A(site) = I + clover-term as an explicit 12x12
// matrix: column j is A applied to the unit spinor e_j.
func (d *Dirac) localBlock(site int) block12 {
	var b block12
	for j := 0; j < 12; j++ {
		var e, col [12]complex128
		e[j] = 1
		col[j] = 1
		if d.clover != nil {
			d.applyClover(col[:], e[:], site)
		}
		for i, v := range col {
			b[i*12+j] = v
		}
	}
	return b
}

// eoSolver augments a solver with parity work lists and the inverted
// odd clover blocks.
type eoSolver struct {
	s         *solver
	even, odd []int32 // linear interior indices per parity
	invOdd    map[int32]*block12
	tmpO      Field // scratch odd field
	tmpE      Field // scratch even field
}

// parityOf returns the global parity of a linear interior index.
func (s *solver) parityOf(i int) int {
	x, y, z, t := s.geo.SiteOfLinear(i)
	return (x + y + z + s.geo.GlobalT(t)) % 2
}

// newEOSolver precomputes parity lists and odd-block inverses.
func newEOSolver(s *solver) (*eoSolver, error) {
	eo := &eoSolver{
		s:      s,
		invOdd: map[int32]*block12{},
		tmpO:   s.geo.NewField(),
		tmpE:   s.geo.NewField(),
	}
	for i := 0; i < s.vol; i++ {
		if s.parityOf(i) == 0 {
			eo.even = append(eo.even, int32(i))
			continue
		}
		eo.odd = append(eo.odd, int32(i))
		inv, err := invert12(s.op.localBlock(s.geo.SliceVol() + i))
		if err != nil {
			return nil, err
		}
		cp := inv
		eo.invOdd[int32(i)] = &cp
	}
	return eo, nil
}

// applyHopping computes dst = H src on the listed interior sites
// (H is the hopping part of D: the negated kappa sums, no identity, no
// clover); other dst entries are untouched. src halos must be current.
func (eo *eoSolver) applyHopping(dst, src Field, sites []int32) {
	s := eo.s
	g := s.geo
	s.env.Team.ParallelFor(s.sch, len(sites), func(_, idx int) {
		x, y, z, t := g.SiteOfLinear(int(sites[idx]))
		out := dst.At(g.Index(x, y, z, t))
		clear(out)
		s.op.addHops(out, src, x, y, z, t)
	}, nil)
}

// applyLocal computes dst = A src (identity + clover) on the listed
// sites.
func (eo *eoSolver) applyLocal(dst, src Field, sites []int32) {
	s := eo.s
	base := s.geo.SliceVol()
	s.env.Team.ParallelFor(s.sch, len(sites), func(_, idx int) {
		site := base + int(sites[idx])
		out := dst.At(site)
		in := src.At(site)
		copy(out, in)
		if s.op.clover != nil {
			s.op.applyClover(out, in, site)
		}
	}, nil)
}

// applyInvOdd computes dst = A_oo^{-1} src on the odd sites.
func (eo *eoSolver) applyInvOdd(dst, src Field) {
	s := eo.s
	base := s.geo.SliceVol()
	s.env.Team.ParallelFor(s.sch, len(eo.odd), func(_, idx int) {
		i := eo.odd[idx]
		site := base + int(i)
		eo.invOdd[i].mulVec(dst.At(site), src.At(site))
	}, nil)
}

// schur computes dst_e = S src_e = A_ee src_e - H_eo A_oo^{-1} H_oe src_e.
// Only even entries of dst are written; src's odd entries must be zero.
func (eo *eoSolver) schur(dst, src Field) error {
	s := eo.s
	if err := s.exchangeHalo(src); err != nil {
		return err
	}
	eo.applyHopping(eo.tmpO, src, eo.odd) // t1 = H_oe src_e
	eo.applyInvOdd(eo.tmpO, eo.tmpO)      // t1 = A_oo^{-1} t1 (site-local, in place is safe)
	if err := s.exchangeHalo(eo.tmpO); err != nil {
		return err
	}
	eo.applyHopping(eo.tmpE, eo.tmpO, eo.even) // t2 = H_eo t1
	eo.applyLocal(dst, src, eo.even)           // dst = A_ee src
	base := s.geo.SliceVol()
	s.env.Team.ParallelFor(s.sch, len(eo.even), func(_, idx int) {
		off := (base + int(eo.even[idx])) * spinorLen
		for k := 0; k < spinorLen; k++ {
			dst[off+k] -= eo.tmpE[off+k]
		}
	}, nil)
	// Model cost: one full-volume dslash equivalent (two half-volume
	// hopping sweeps) plus the block solves.
	s.flops += (FlopsPerSite + CloverFlopsPerSite) * float64(s.vol)
	return s.env.Charge(s.kD, float64(s.vol))
}

// SolveEO runs the even-odd preconditioned BiCGStab for D x = b and
// returns the full solution's true relative residual.
func (s *solver) SolveEO(x, b Field, maxIter int) (float64, error) {
	eo, err := newEOSolver(s)
	if err != nil {
		return 0, err
	}
	g := s.geo

	// b'_e = b_e - H_eo A_oo^{-1} b_o  (stored with odd entries zero).
	bo := g.NewField()
	copyOn(bo, b, g, eo.odd)
	eo.applyInvOdd(bo, bo)
	if err := s.exchangeHalo(bo); err != nil {
		return 0, err
	}
	eo.applyHopping(eo.tmpE, bo, eo.even)
	bp := g.NewField()
	copyOn(bp, b, g, eo.even)
	subOn(bp, eo.tmpE, g, eo.even)

	// Solve S x_e = b'_e.
	s.apply = eo.schur
	defer func() { s.apply = nil }()
	if _, err := s.bicgstab(x, bp, maxIter); err != nil {
		return 0, err
	}

	// Reconstruct x_o = A_oo^{-1} (b_o - H_oe x_e).
	if err := s.exchangeHalo(x); err != nil {
		return 0, err
	}
	eo.applyHopping(eo.tmpO, x, eo.odd)
	xo := g.NewField()
	copyOn(xo, b, g, eo.odd)
	subOn(xo, eo.tmpO, g, eo.odd)
	eo.applyInvOdd(xo, xo)
	addOn(x, xo, g, eo.odd)

	// True residual of the FULL system.
	s.apply = nil
	ax := g.NewField()
	if err := s.matvec(ax, x); err != nil {
		return 0, err
	}
	if err := s.forEach(func(lo, hi int) {
		for k := lo; k < hi; k++ {
			ax[k] = b[k] - ax[k]
		}
	}); err != nil {
		return 0, err
	}
	rn, err := s.norm2(ax)
	if err != nil {
		return 0, err
	}
	bn, err := s.norm2(b)
	if err != nil {
		return 0, err
	}
	if bn == 0 {
		return 0, nil
	}
	return math.Sqrt(rn / bn), nil
}

// copyOn / subOn / addOn operate on the listed interior sites only.
func copyOn(dst, src Field, g *Geometry, sites []int32) {
	base := g.SliceVol()
	for _, i := range sites {
		off := (base + int(i)) * spinorLen
		copy(dst[off:off+spinorLen], src[off:off+spinorLen])
	}
}

func subOn(dst, src Field, g *Geometry, sites []int32) {
	base := g.SliceVol()
	for _, i := range sites {
		off := (base + int(i)) * spinorLen
		for k := 0; k < spinorLen; k++ {
			dst[off+k] -= src[off+k]
		}
	}
}

func addOn(dst, src Field, g *Geometry, sites []int32) {
	base := g.SliceVol()
	for _, i := range sites {
		off := (base + int(i)) * spinorLen
		for k := 0; k < spinorLen; k++ {
			dst[off+k] += src[off+k]
		}
	}
}
