package ccsqcd

// The clover improvement term of the Wilson-Clover operator:
//
//	D psi(x) = D_wilson psi(x) - (csw kappa / 2) sum_{mu<nu} sigma_{mu nu} (i F_{mu nu}(x)) psi(x)
//
// with F_{mu nu} the clover-leaf average of the four plaquettes in the
// (mu,nu) plane and sigma_{mu nu} = (i/2)[gamma_mu, gamma_nu]. Both
// sigma and iF are hermitian, so the term is a hermitian site-local
// 12x12 matrix. On a unit gauge field every plaquette is the identity,
// F vanishes, and the clover term is exactly zero — the property the
// tests pin.

// pairIndex enumerates the six (mu<nu) planes.
var cloverPairs = [6][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}

// Clover holds the per-site field-strength matrices iF_{mu nu}.
type Clover struct {
	g *Geometry
	// F[p][site-SliceVol()] is i*F for plane p (hermitian 3x3) at an
	// interior storage site; halo sites have no entry.
	F [6][]SU3
}

// neighbor returns the storage index displaced by one step in
// direction mu (sign +1/-1); spatial directions wrap inside the slab,
// the time direction walks into the halo slices (the caller guarantees
// |t displacement| <= 1 from an interior site).
func (g *Geometry) neighbor(x, y, z, t, mu, sign int) (int, int, int, int) {
	switch mu {
	case 0:
		return (x + sign + g.LX) % g.LX, y, z, t
	case 1:
		return x, (y + sign + g.LY) % g.LY, z, t
	case 2:
		return x, y, (z + sign + g.LZ) % g.LZ, t
	default:
		return x, y, z, t + sign
	}
}

// NewClover computes the clover field from the gauge links. Interior
// sites only; leaves touching t = -1 or t = LTloc use the stored halo
// links. The adjoints in the leaves are read in place (mulDag, dagMul,
// dagDag), which computes the same products as multiplying by a copied
// adjoint.
func NewClover(g *Geometry, u *Gauge) *Clover {
	cl := &Clover{g: g}
	for p := range cl.F {
		cl.F[p] = make([]SU3, g.LocalVol())
	}
	link := func(mu, x, y, z, t int) *SU3 {
		return &u.U[mu][g.Index(x, y, z, t)]
	}
	for t := 0; t < g.LTloc; t++ {
		for z := 0; z < g.LZ; z++ {
			for y := 0; y < g.LY; y++ {
				for x := 0; x < g.LX; x++ {
					site := g.Index(x, y, z, t)
					for p, mn := range cloverPairs {
						mu, nu := mn[0], mn[1]
						// Four clover leaves around (x; mu,nu), summed into q.
						// Leaf 1: U_mu(x) U_nu(x+mu) U_mu†(x+nu) U_nu†(x).
						x1, y1, z1, t1 := g.neighbor(x, y, z, t, mu, +1)
						x2, y2, z2, t2 := g.neighbor(x, y, z, t, nu, +1)
						a := mul3(link(mu, x, y, z, t), link(nu, x1, y1, z1, t1))
						b := mul3(link(mu, x2, y2, z2, t2), link(nu, x, y, z, t))
						q := mulDag(&a, &b)
						// Leaf 2: U_nu(x) U_mu†(x-mu+nu) U_nu†(x-mu) U_mu(x-mu).
						xm, ym, zm, tm := g.neighbor(x, y, z, t, mu, -1)
						xmn, ymn, zmn, tmn := g.neighbor(xm, ym, zm, tm, nu, +1)
						a = mulDag(link(nu, x, y, z, t), link(mu, xmn, ymn, zmn, tmn))
						b = dagMul(link(nu, xm, ym, zm, tm), link(mu, xm, ym, zm, tm))
						l := mul3(&a, &b)
						add3(&q, &l)
						// Leaf 3: U_mu†(x-mu) U_nu†(x-mu-nu) U_mu(x-mu-nu) U_nu(x-nu).
						xmn, ymn, zmn, tmn = g.neighbor(xm, ym, zm, tm, nu, -1)
						xn, yn, zn, tn := g.neighbor(x, y, z, t, nu, -1)
						a = dagDag(link(mu, xm, ym, zm, tm), link(nu, xmn, ymn, zmn, tmn))
						b = mul3(link(mu, xmn, ymn, zmn, tmn), link(nu, xn, yn, zn, tn))
						l = mul3(&a, &b)
						add3(&q, &l)
						// Leaf 4: U_nu†(x-nu) U_mu(x-nu) U_nu(x+mu-nu) U_mu†(x).
						xmn, ymn, zmn, tmn = g.neighbor(xn, yn, zn, tn, mu, +1)
						a = dagMul(link(nu, xn, yn, zn, tn), link(mu, xn, yn, zn, tn))
						b = mulDag(link(nu, xmn, ymn, zmn, tmn), link(mu, x, y, z, t))
						l = mul3(&a, &b)
						add3(&q, &l)
						// iF = i (Q - Q†) / 8 — hermitian. With d = Q - Q†,
						// i·d is (-Im d, Re d), so entry (r,c) takes Im Q from
						// both triangles and Re Q from their difference.
						f := &cl.F[p][site-g.SliceVol()]
						for r := 0; r < 3; r++ {
							for c := 0; c < 3; c++ {
								qa, qb := q[3*r+c], q[3*c+r]
								f[3*r+c] = complex(-(imag(qa)+imag(qb))/8, (real(qa)-real(qb))/8)
							}
						}
					}
				}
			}
		}
	}
	return cl
}

// add3 accumulates b into a.
func add3(a, b *SU3) {
	for i := range a {
		a[i] += b[i]
	}
}

// CloverFlopsPerSite is the modelled extra cost of the clover term per
// site (6 planes x sigma (x) F application on a 12-spinor).
const CloverFlopsPerSite = 504

// applyClover accumulates -c * sum_p sigma_p (x) iF_p(site) psi into
// out, c = csw kappa/2. Each row of sigma_p has one nonzero, ±1 or ±i
// (sigmaRows in the tests lists them), so every (plane, spin row) is one
// colour multiply of the matching source spin followed by the exact
// ±c or ±ic update.
func (d *Dirac) applyClover(out, in []complex128, site int) {
	c := d.Csw * d.Kappa / 2
	i := site - d.G.SliceVol()
	o0, o1, o2, o3 := spins(out)
	p0, p1, p2, p3 := spins(in)
	var v0, v1, v2 complex128
	f := &d.clover.F[0][i] // (x,y): sigma rows (-p0, p1, -p2, p3)
	v0, v1, v2 = f.mulVec(vec(p0))
	addK(o0, c, v0, v1, v2)
	v0, v1, v2 = f.mulVec(vec(p1))
	subK(o1, c, v0, v1, v2)
	v0, v1, v2 = f.mulVec(vec(p2))
	addK(o2, c, v0, v1, v2)
	v0, v1, v2 = f.mulVec(vec(p3))
	subK(o3, c, v0, v1, v2)
	f = &d.clover.F[1][i] // (x,z): (-i p1, i p0, -i p3, i p2)
	v0, v1, v2 = f.mulVec(vec(p1))
	addIK(o0, c, v0, v1, v2)
	v0, v1, v2 = f.mulVec(vec(p0))
	subIK(o1, c, v0, v1, v2)
	v0, v1, v2 = f.mulVec(vec(p3))
	addIK(o2, c, v0, v1, v2)
	v0, v1, v2 = f.mulVec(vec(p2))
	subIK(o3, c, v0, v1, v2)
	f = &d.clover.F[2][i] // (x,t): (p3, p2, p1, p0)
	v0, v1, v2 = f.mulVec(vec(p3))
	subK(o0, c, v0, v1, v2)
	v0, v1, v2 = f.mulVec(vec(p2))
	subK(o1, c, v0, v1, v2)
	v0, v1, v2 = f.mulVec(vec(p1))
	subK(o2, c, v0, v1, v2)
	v0, v1, v2 = f.mulVec(vec(p0))
	subK(o3, c, v0, v1, v2)
	f = &d.clover.F[3][i] // (y,z): (-p1, -p0, -p3, -p2)
	v0, v1, v2 = f.mulVec(vec(p1))
	addK(o0, c, v0, v1, v2)
	v0, v1, v2 = f.mulVec(vec(p0))
	addK(o1, c, v0, v1, v2)
	v0, v1, v2 = f.mulVec(vec(p3))
	addK(o2, c, v0, v1, v2)
	v0, v1, v2 = f.mulVec(vec(p2))
	addK(o3, c, v0, v1, v2)
	f = &d.clover.F[4][i] // (y,t): (-i p3, i p2, -i p1, i p0)
	v0, v1, v2 = f.mulVec(vec(p3))
	addIK(o0, c, v0, v1, v2)
	v0, v1, v2 = f.mulVec(vec(p2))
	subIK(o1, c, v0, v1, v2)
	v0, v1, v2 = f.mulVec(vec(p1))
	addIK(o2, c, v0, v1, v2)
	v0, v1, v2 = f.mulVec(vec(p0))
	subIK(o3, c, v0, v1, v2)
	f = &d.clover.F[5][i] // (z,t): (p2, -p3, p0, -p1)
	v0, v1, v2 = f.mulVec(vec(p2))
	subK(o0, c, v0, v1, v2)
	v0, v1, v2 = f.mulVec(vec(p3))
	addK(o1, c, v0, v1, v2)
	v0, v1, v2 = f.mulVec(vec(p0))
	subK(o2, c, v0, v1, v2)
	v0, v1, v2 = f.mulVec(vec(p1))
	addK(o3, c, v0, v1, v2)
}
