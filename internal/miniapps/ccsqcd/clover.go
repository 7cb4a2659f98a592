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

// sigmaMunu returns sigma_{mu nu} = (i/2)(gamma_mu gamma_nu - gamma_nu gamma_mu).
func sigmaMunu() [6]spinMat {
	gs := gamma()
	var out [6]spinMat
	for p, mn := range cloverPairs {
		gm, gn := gs[mn[0]], gs[mn[1]]
		var comm spinMat
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				var s complex128
				for k := 0; k < 4; k++ {
					s += gm[a][k]*gn[k][b] - gn[a][k]*gm[k][b]
				}
				comm[a][b] = complex(0, 0.5) * s
			}
		}
		out[p] = comm
	}
	return out
}

// sigmaRows returns the one nonzero entry of each row of every
// sigma_{mu nu}, so the clover term needs one colour multiply per
// (plane, spin row); TestSigmaRowsOneNonzero checks the shape.
func sigmaRows() [6][4]spinTerm {
	var out [6][4]spinTerm
	for p, s := range sigmaMunu() {
		for a := range s {
			for b, c := range s[a] {
				if c != 0 {
					out[p][a] = spinTerm{b, c}
				}
			}
		}
	}
	return out
}

// mul3 multiplies 3x3 color matrices.
func mul3(a, b *SU3) SU3 {
	var c SU3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			var s complex128
			for k := 0; k < 3; k++ {
				s += a[3*i+k] * b[3*k+j]
			}
			c[3*i+j] = s
		}
	}
	return c
}

// dag3 returns the conjugate transpose.
func dag3(a *SU3) SU3 {
	var c SU3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			v := a[3*j+i]
			c[3*i+j] = complex(real(v), -imag(v))
		}
	}
	return c
}

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
// links.
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
						// Four clover leaves around (x; mu,nu).
						var q SU3
						{
							// Leaf 1: U_mu(x) U_nu(x+mu) U_mu†(x+nu) U_nu†(x).
							x1, y1, z1, t1 := g.neighbor(x, y, z, t, mu, +1)
							x2, y2, z2, t2 := g.neighbor(x, y, z, t, nu, +1)
							a := mul3(link(mu, x, y, z, t), link(nu, x1, y1, z1, t1))
							bmat := mul3(link(mu, x2, y2, z2, t2), link(nu, x, y, z, t))
							bd := dag3(&bmat)
							l := mul3(&a, &bd)
							add3(&q, &l)
						}
						{
							// Leaf 2: U_nu(x) U_mu†(x-mu+nu) U_nu†(x-mu) U_mu(x-mu).
							xm, ym, zm, tm := g.neighbor(x, y, z, t, mu, -1)
							xmn, ymn, zmn, tmn := g.neighbor(xm, ym, zm, tm, nu, +1)
							a := mul3(link(nu, x, y, z, t), ptrDag(link(mu, xmn, ymn, zmn, tmn)))
							b := mul3(ptrDag(link(nu, xm, ym, zm, tm)), link(mu, xm, ym, zm, tm))
							l := mul3(&a, &b)
							add3(&q, &l)
						}
						{
							// Leaf 3: U_mu†(x-mu) U_nu†(x-mu-nu) U_mu(x-mu-nu) U_nu(x-nu).
							xm, ym, zm, tm := g.neighbor(x, y, z, t, mu, -1)
							xmn, ymn, zmn, tmn := g.neighbor(xm, ym, zm, tm, nu, -1)
							xn, yn, zn, tn := g.neighbor(x, y, z, t, nu, -1)
							a := mul3(ptrDag(link(mu, xm, ym, zm, tm)), ptrDag(link(nu, xmn, ymn, zmn, tmn)))
							b := mul3(link(mu, xmn, ymn, zmn, tmn), link(nu, xn, yn, zn, tn))
							l := mul3(&a, &b)
							add3(&q, &l)
						}
						{
							// Leaf 4: U_nu†(x-nu) U_mu(x-nu) U_nu(x+mu-nu) U_mu†(x).
							xn, yn, zn, tn := g.neighbor(x, y, z, t, nu, -1)
							xmn, ymn, zmn, tmn := g.neighbor(xn, yn, zn, tn, mu, +1)
							a := mul3(ptrDag(link(nu, xn, yn, zn, tn)), link(mu, xn, yn, zn, tn))
							b := mul3(link(nu, xmn, ymn, zmn, tmn), ptrDag(link(mu, x, y, z, t)))
							l := mul3(&a, &b)
							add3(&q, &l)
						}
						// iF = i (Q - Q†) / 8 — hermitian.
						qd := dag3(&q)
						var f SU3
						for i := range f {
							f[i] = complex(0, 1) * (q[i] - qd[i]) / 8
						}
						cl.F[p][site-g.SliceVol()] = f
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

// ptrDag returns a pointer to the conjugate transpose (helper for
// chained multiplications).
func ptrDag(a *SU3) *SU3 {
	d := dag3(a)
	return &d
}

// CloverFlopsPerSite is the modelled extra cost of the clover term per
// site (6 planes x sigma (x) F application on a 12-spinor).
const CloverFlopsPerSite = 504

// applyClover accumulates -coef * sum_p sigma_p (x) iF_p(site) psi into
// out. Each sigma row has one nonzero, so every (plane, spin row) is a
// single colour multiply of the matching source spin.
func (d *Dirac) applyClover(out, in []complex128, site int) {
	coef := complex(d.Csw*d.Kappa/2, 0)
	i := site - d.G.SliceVol()
	for p := range cloverPairs {
		f := &d.clover.F[p][i]
		for a, tm := range d.sigma[p] {
			chi := f.MulVec((*[3]complex128)(in[tm.s*3:]))
			cs := coef * tm.c
			o := (*[3]complex128)(out[a*3:])
			o[0] -= cs * chi[0]
			o[1] -= cs * chi[1]
			o[2] -= cs * chi[2]
		}
	}
}
