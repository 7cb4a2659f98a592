package ccsqcd

// The Wilson fermion operator:
//
//	D psi(x) = psi(x) - kappa * sum_mu [ (1-gamma_mu) U_mu(x)   psi(x+mu)
//	                                   + (1+gamma_mu) U_mu†(x-mu) psi(x-mu) ]
//
// Spin structure uses hermitian Dirac-basis gamma matrices (spelled out
// by gamma() in the tests); the solver (BiCGStab) needs only that D is
// a consistent nonsingular linear operator, which the residual check
// verifies end to end.
//
// Each hop is spin-projected: 1∓gamma_mu has rank 2, so the source is
// projected onto two spin components h0, h1, only those two are
// multiplied by the link, and the four output spins are rebuilt from
// them. A site costs 16 SU(3) matrix-vector products instead of 32.
//
// The eight hops are written out. Every coefficient of the projection
// and the rebuild is ±1, ±i or 2, and a product by one of those is
// exact in IEEE-754: a swap of real and imaginary parts, a sign flip or
// a doubling. The hops therefore make those products with real
// operations and keep every other multiply and the order of every
// addition, so they equal the table-driven form kept in the tests
// (hop, hopProj) bit for bit.

// Dirac is the Wilson(-Clover) operator bound to one rank's slab.
type Dirac struct {
	G     *Geometry
	U     *Gauge
	Kappa float64
	// Csw is the clover coefficient; zero disables the clover term.
	Csw    float64
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
	d.clover = NewClover(g, u)
	return d
}

// FlopsPerSite is the modelled cost of one Wilson dslash site update:
// the literature count for the spin-projected algorithm the functional
// operator runs (eight hops of two SU(3) matrix-vector products each,
// plus projection and reconstruction), 1320 flops.
const FlopsPerSite = 1320

// spins returns pointers to the four spins of a site's 12 components,
// which are spin major: spin s is components 3s, 3s+1, 3s+2.
func spins(p []complex128) (s0, s1, s2, s3 *[3]complex128) {
	a := (*[spinorLen]complex128)(p)
	return (*[3]complex128)(a[0:3]), (*[3]complex128)(a[3:6]), (*[3]complex128)(a[6:9]), (*[3]complex128)(a[9:12])
}

// vec returns the colour vector of spin a.
func vec(a *[3]complex128) (complex128, complex128, complex128) { return a[0], a[1], a[2] }

// The half-spinor projections a+b, a-b, a+ib, a-ib and 2a.

func plus(a, b *[3]complex128) (complex128, complex128, complex128) {
	return a[0] + b[0], a[1] + b[1], a[2] + b[2]
}

func minus(a, b *[3]complex128) (complex128, complex128, complex128) {
	return a[0] - b[0], a[1] - b[1], a[2] - b[2]
}

func plusI(a, b *[3]complex128) (complex128, complex128, complex128) {
	return complex(real(a[0])-imag(b[0]), imag(a[0])+real(b[0])),
		complex(real(a[1])-imag(b[1]), imag(a[1])+real(b[1])),
		complex(real(a[2])-imag(b[2]), imag(a[2])+real(b[2]))
}

func minusI(a, b *[3]complex128) (complex128, complex128, complex128) {
	return complex(real(a[0])+imag(b[0]), imag(a[0])-real(b[0])),
		complex(real(a[1])+imag(b[1]), imag(a[1])-real(b[1])),
		complex(real(a[2])+imag(b[2]), imag(a[2])-real(b[2]))
}

func twice(a *[3]complex128) (complex128, complex128, complex128) {
	return complex(2*real(a[0]), 2*imag(a[0])),
		complex(2*real(a[1]), 2*imag(a[1])),
		complex(2*real(a[2]), 2*imag(a[2]))
}

// The rebuild updates o -= k·v, o += k·v, o -= ik·v and o += ik·v of
// one output spin, for a real k: the row -k·c·v with c = 1, -1, i, -i.
// The clover term uses them too.

func subK(o *[3]complex128, k float64, v0, v1, v2 complex128) {
	o[0] -= complex(k*real(v0), k*imag(v0))
	o[1] -= complex(k*real(v1), k*imag(v1))
	o[2] -= complex(k*real(v2), k*imag(v2))
}

func addK(o *[3]complex128, k float64, v0, v1, v2 complex128) {
	o[0] += complex(k*real(v0), k*imag(v0))
	o[1] += complex(k*real(v1), k*imag(v1))
	o[2] += complex(k*real(v2), k*imag(v2))
}

func subIK(o *[3]complex128, k float64, v0, v1, v2 complex128) {
	o[0] -= complex(-k*imag(v0), k*real(v0))
	o[1] -= complex(-k*imag(v1), k*real(v1))
	o[2] -= complex(-k*imag(v2), k*real(v2))
}

func addIK(o *[3]complex128, k float64, v0, v1, v2 complex128) {
	o[0] += complex(-k*imag(v0), k*real(v0))
	o[1] += complex(-k*imag(v1), k*real(v1))
	o[2] += complex(-k*imag(v2), k*real(v2))
}

// addHops accumulates the hopping term of interior site (x,y,z,t) into
// out: -kappa sum_mu [(1-gamma_mu) U_mu(x) src(x+mu) + (1+gamma_mu)
// U_mu†(x-mu) src(x-mu)]. Each hop projects the neighbour's spins
// p0..p3 onto two colour vectors, multiplies both by the link (a = U h0,
// b = U h1, or U† for the backward hops) and adds -kappa times the
// listed rebuild to out's spins o0..o3.
func (d *Dirac) addHops(out []complex128, src Field, x, y, z, t int) {
	g := d.G
	k := d.Kappa
	site := g.Index(x, y, z, t)
	// Spatial neighbours are periodic inside the slab.
	xp, xm := (x+1)%g.LX, (x-1+g.LX)%g.LX
	yp, ym := (y+1)%g.LY, (y-1+g.LY)%g.LY
	zp, zm := (z+1)%g.LZ, (z-1+g.LZ)%g.LZ
	o0, o1, o2, o3 := spins(out)

	// +x, 1-gamma_x: h = (p0 - i p3, p1 - i p2); rebuild (a, b, ib, ia).
	u := &d.U.U[0][site]
	p0, p1, p2, p3 := spins(src.At(g.Index(xp, y, z, t)))
	a0, a1, a2 := u.mulVec(minusI(p0, p3))
	b0, b1, b2 := u.mulVec(minusI(p1, p2))
	subK(o0, k, a0, a1, a2)
	subK(o1, k, b0, b1, b2)
	subIK(o2, k, b0, b1, b2)
	subIK(o3, k, a0, a1, a2)

	// -x, 1+gamma_x: h = (p0 + i p3, p1 + i p2); rebuild (a, b, -ib, -ia).
	n := g.Index(xm, y, z, t)
	u = &d.U.U[0][n]
	p0, p1, p2, p3 = spins(src.At(n))
	a0, a1, a2 = u.dagMulVec(plusI(p0, p3))
	b0, b1, b2 = u.dagMulVec(plusI(p1, p2))
	subK(o0, k, a0, a1, a2)
	subK(o1, k, b0, b1, b2)
	addIK(o2, k, b0, b1, b2)
	addIK(o3, k, a0, a1, a2)

	// +y, 1-gamma_y: h = (p0 - p3, p1 + p2); rebuild (a, b, b, -a).
	u = &d.U.U[1][site]
	p0, p1, p2, p3 = spins(src.At(g.Index(x, yp, z, t)))
	a0, a1, a2 = u.mulVec(minus(p0, p3))
	b0, b1, b2 = u.mulVec(plus(p1, p2))
	subK(o0, k, a0, a1, a2)
	subK(o1, k, b0, b1, b2)
	subK(o2, k, b0, b1, b2)
	addK(o3, k, a0, a1, a2)

	// -y, 1+gamma_y: h = (p0 + p3, p1 - p2); rebuild (a, b, -b, a).
	n = g.Index(x, ym, z, t)
	u = &d.U.U[1][n]
	p0, p1, p2, p3 = spins(src.At(n))
	a0, a1, a2 = u.dagMulVec(plus(p0, p3))
	b0, b1, b2 = u.dagMulVec(minus(p1, p2))
	subK(o0, k, a0, a1, a2)
	subK(o1, k, b0, b1, b2)
	addK(o2, k, b0, b1, b2)
	subK(o3, k, a0, a1, a2)

	// +z, 1-gamma_z: h = (p0 - i p2, p1 + i p3); rebuild (a, b, ia, -ib).
	u = &d.U.U[2][site]
	p0, p1, p2, p3 = spins(src.At(g.Index(x, y, zp, t)))
	a0, a1, a2 = u.mulVec(minusI(p0, p2))
	b0, b1, b2 = u.mulVec(plusI(p1, p3))
	subK(o0, k, a0, a1, a2)
	subK(o1, k, b0, b1, b2)
	subIK(o2, k, a0, a1, a2)
	addIK(o3, k, b0, b1, b2)

	// -z, 1+gamma_z: h = (p0 + i p2, p1 - i p3); rebuild (a, b, -ia, ib).
	n = g.Index(x, y, zm, t)
	u = &d.U.U[2][n]
	p0, p1, p2, p3 = spins(src.At(n))
	a0, a1, a2 = u.dagMulVec(plusI(p0, p2))
	b0, b1, b2 = u.dagMulVec(minusI(p1, p3))
	subK(o0, k, a0, a1, a2)
	subK(o1, k, b0, b1, b2)
	addIK(o2, k, a0, a1, a2)
	subIK(o3, k, b0, b1, b2)

	// +t, 1-gamma_t = diag(0,0,2,2): h = (2 p2, 2 p3); rebuild (0, 0, a, b).
	u = &d.U.U[3][site]
	_, _, p2, p3 = spins(src.At(g.Index(x, y, z, t+1)))
	a0, a1, a2 = u.mulVec(twice(p2))
	b0, b1, b2 = u.mulVec(twice(p3))
	subK(o2, k, a0, a1, a2)
	subK(o3, k, b0, b1, b2)

	// -t, 1+gamma_t = diag(2,2,0,0): h = (2 p0, 2 p1); rebuild (a, b, 0, 0).
	n = g.Index(x, y, z, t-1)
	u = &d.U.U[3][n]
	p0, p1, _, _ = spins(src.At(n))
	a0, a1, a2 = u.dagMulVec(twice(p0))
	b0, b1, b2 = u.dagMulVec(twice(p1))
	subK(o0, k, a0, a1, a2)
	subK(o1, k, b0, b1, b2)
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
