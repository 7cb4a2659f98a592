package ccsqcd

// The Wilson fermion operator:
//
//	D psi(x) = psi(x) - kappa * sum_mu [ (1-gamma_mu) U_mu(x)   psi(x+mu)
//	                                   + (1+gamma_mu) U_mu†(x-mu) psi(x-mu) ]
//
// Spin structure uses hermitian Dirac-basis gamma matrices; the solver
// (BiCGStab) needs only that D is a consistent nonsingular linear
// operator, which the residual check verifies end to end.
//
// Each hop is spin-projected: 1∓gamma_mu has rank 2, so the source is
// projected onto two spin components, only those two are multiplied by
// the link, and the four output spins are rebuilt from them. A site
// costs 16 SU(3) matrix-vector products instead of 32.

// spinMat is a 4x4 complex spin matrix.
type spinMat [4][4]complex128

// gamma returns the four Dirac gamma matrices.
func gamma() [4]spinMat {
	i := complex(0, 1)
	var gx, gy, gz, gt spinMat
	gx = spinMat{
		{0, 0, 0, i},
		{0, 0, i, 0},
		{0, -i, 0, 0},
		{-i, 0, 0, 0},
	}
	gy = spinMat{
		{0, 0, 0, 1},
		{0, 0, -1, 0},
		{0, -1, 0, 0},
		{1, 0, 0, 0},
	}
	gz = spinMat{
		{0, 0, i, 0},
		{0, 0, 0, -i},
		{-i, 0, 0, 0},
		{0, i, 0, 0},
	}
	gt = spinMat{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, -1, 0},
		{0, 0, 0, -1},
	}
	return [4]spinMat{gx, gy, gz, gt}
}

// spinTerm is one nonzero entry c, in column s, of a sparse spin-matrix
// row.
type spinTerm struct {
	s int
	c complex128
}

// halfSpin factors the rank-2 hop projector 1∓gamma_mu as R·Q: Q (2x4)
// projects a four-spinor onto two spin components, R (4x2) rebuilds
// four from them. Both are stored as sparse rows.
type halfSpin struct {
	q [2][]spinTerm // h_k = sum c·psi_s
	r [4][]spinTerm // out_a = sum c·h_s; empty where 1∓gamma_mu has a zero row
}

// hopProj[mu][0] factors the forward projector 1-gamma_mu and
// hopProj[mu][1] the backward 1+gamma_mu, for the gamma() basis. Every
// coefficient is ±1, ±i or 2, so the factors are exact;
// TestHopProjFactorsProjectors checks R·Q against 1∓gamma_mu.
var hopProj = [4][2]halfSpin{
	{ // x
		{
			q: [2][]spinTerm{{{0, 1}, {3, -1i}}, {{1, 1}, {2, -1i}}},
			r: [4][]spinTerm{{{0, 1}}, {{1, 1}}, {{1, 1i}}, {{0, 1i}}},
		},
		{
			q: [2][]spinTerm{{{0, 1}, {3, 1i}}, {{1, 1}, {2, 1i}}},
			r: [4][]spinTerm{{{0, 1}}, {{1, 1}}, {{1, -1i}}, {{0, -1i}}},
		},
	},
	{ // y
		{
			q: [2][]spinTerm{{{0, 1}, {3, -1}}, {{1, 1}, {2, 1}}},
			r: [4][]spinTerm{{{0, 1}}, {{1, 1}}, {{1, 1}}, {{0, -1}}},
		},
		{
			q: [2][]spinTerm{{{0, 1}, {3, 1}}, {{1, 1}, {2, -1}}},
			r: [4][]spinTerm{{{0, 1}}, {{1, 1}}, {{1, -1}}, {{0, 1}}},
		},
	},
	{ // z
		{
			q: [2][]spinTerm{{{0, 1}, {2, -1i}}, {{1, 1}, {3, 1i}}},
			r: [4][]spinTerm{{{0, 1}}, {{1, 1}}, {{0, 1i}}, {{1, -1i}}},
		},
		{
			q: [2][]spinTerm{{{0, 1}, {2, 1i}}, {{1, 1}, {3, -1i}}},
			r: [4][]spinTerm{{{0, 1}}, {{1, 1}}, {{0, -1i}}, {{1, 1i}}},
		},
	},
	{ // t: 1-gamma_t = diag(0,0,2,2), 1+gamma_t = diag(2,2,0,0)
		{
			q: [2][]spinTerm{{{2, 2}}, {{3, 2}}},
			r: [4][]spinTerm{nil, nil, {{0, 1}}, {{1, 1}}},
		},
		{
			q: [2][]spinTerm{{{0, 2}}, {{1, 2}}},
			r: [4][]spinTerm{{{0, 1}}, {{1, 1}}, nil, nil},
		},
	},
}

// Dirac is the Wilson(-Clover) operator bound to one rank's slab.
type Dirac struct {
	G     *Geometry
	U     *Gauge
	Kappa float64
	// Csw is the clover coefficient; zero disables the clover term.
	Csw    float64
	sigma  [6][4]spinTerm // the one nonzero of each sigma_{mu nu} row
	clover *Clover
}

// NewDirac builds the plain Wilson operator.
func NewDirac(g *Geometry, u *Gauge, kappa float64) *Dirac {
	return &Dirac{G: g, U: u, Kappa: kappa}
}

// NewDiracClover builds the Wilson-Clover operator the CCS QCD miniapp
// actually solves: the Wilson hopping term plus the site-local clover
// improvement with coefficient csw.
func NewDiracClover(g *Geometry, u *Gauge, kappa, csw float64) *Dirac {
	d := NewDirac(g, u, kappa)
	d.Csw = csw
	d.sigma = sigmaRows()
	d.clover = NewClover(g, u)
	return d
}

// FlopsPerSite is the modelled cost of one Wilson dslash site update:
// the literature count for the spin-projected algorithm the functional
// operator runs (eight hops of two SU(3) matrix-vector products each,
// plus projection and reconstruction), 1320 flops.
const FlopsPerSite = 1320

// hop accumulates -kappa (R ⊗ M)(Q ⊗ 1) src into out (12 complex), with
// h = (Q, R) and M the link or, if dagger, its adjoint: project the
// source onto two spin components, multiply each by M, rebuild four.
func hop(out []complex128, h *halfSpin, m *SU3, src []complex128, dagger bool, kappa float64) {
	var chi [2][3]complex128
	for k, row := range h.q {
		var v [3]complex128
		for _, tm := range row {
			in := (*[3]complex128)(src[tm.s*3:])
			v[0] += tm.c * in[0]
			v[1] += tm.c * in[1]
			v[2] += tm.c * in[2]
		}
		if dagger {
			chi[k] = m.DagMulVec(&v)
		} else {
			chi[k] = m.MulVec(&v)
		}
	}
	k := complex(kappa, 0)
	for a, row := range h.r {
		o := (*[3]complex128)(out[a*3:])
		for _, tm := range row {
			kc := k * tm.c
			c := &chi[tm.s]
			o[0] -= kc * c[0]
			o[1] -= kc * c[1]
			o[2] -= kc * c[2]
		}
	}
}

// addHops accumulates the hopping term of interior site (x,y,z,t) into
// out: -kappa sum_mu [(1-gamma_mu) U_mu(x) src(x+mu) + (1+gamma_mu)
// U_mu†(x-mu) src(x-mu)].
func (d *Dirac) addHops(out []complex128, src Field, x, y, z, t int) {
	g := d.G
	site := g.Index(x, y, z, t)
	// Spatial neighbours are periodic inside the slab.
	xp, xm := (x+1)%g.LX, (x-1+g.LX)%g.LX
	yp, ym := (y+1)%g.LY, (y-1+g.LY)%g.LY
	zp, zm := (z+1)%g.LZ, (z-1+g.LZ)%g.LZ
	// nbs[mu] holds the storage sites x+mu and x-mu.
	nbs := [4][2]int{
		{g.Index(xp, y, z, t), g.Index(xm, y, z, t)},
		{g.Index(x, yp, z, t), g.Index(x, ym, z, t)},
		{g.Index(x, y, zp, t), g.Index(x, y, zm, t)},
		{g.Index(x, y, z, t+1), g.Index(x, y, z, t-1)},
	}
	for mu, n := range nbs {
		hop(out, &hopProj[mu][0], &d.U.U[mu][site], src.At(n[0]), false, d.Kappa)
		hop(out, &hopProj[mu][1], &d.U.U[mu][n[1]], src.At(n[1]), true, d.Kappa)
	}
}

// ApplySite computes dst(x) = (D src)(x) for one interior site.
func (d *Dirac) ApplySite(dst, src Field, x, y, z, t int) {
	site := d.G.Index(x, y, z, t)
	out := dst.At(site)
	in := src.At(site)
	copy(out, in) // identity term
	d.addHops(out, src, x, y, z, t)
	if d.clover != nil {
		d.applyClover(out, in, site)
	}
}

// ApplySlice applies D to every site of local time-slice t.
func (d *Dirac) ApplySlice(dst, src Field, t int) {
	g := d.G
	for z := 0; z < g.LZ; z++ {
		for y := 0; y < g.LY; y++ {
			for x := 0; x < g.LX; x++ {
				d.ApplySite(dst, src, x, y, z, t)
			}
		}
	}
}

// Apply is the serial reference: D over the whole slab (halos must be
// current).
func (d *Dirac) Apply(dst, src Field) {
	for t := 0; t < d.G.LTloc; t++ {
		d.ApplySlice(dst, src, t)
	}
}

// SiteOfLinear converts a linear interior-site index (0..LocalVol) to
// coordinates; used to parallelize over sites.
func (g *Geometry) SiteOfLinear(i int) (x, y, z, t int) {
	x = i % g.LX
	i /= g.LX
	y = i % g.LY
	i /= g.LY
	z = i % g.LZ
	t = i / g.LZ
	return
}
