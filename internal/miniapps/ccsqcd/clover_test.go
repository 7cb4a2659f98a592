package ccsqcd

import (
	"math/cmplx"
	"testing"

	"fibersim/internal/miniapps/common"
)

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

// loopMul3 multiplies 3x3 color matrices with loops: the reference the
// unrolled products are pinned to.
func loopMul3(a, b *SU3) SU3 {
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

// ptrDag returns a pointer to the conjugate transpose (helper for
// chained multiplications).
func ptrDag(a *SU3) *SU3 {
	d := dag3(a)
	return &d
}

// loopedClover is NewClover's looped form, the reference the unrolled
// build is pinned to: every leaf multiplies with loopMul3, and each
// adjoint is copied (dag3, ptrDag) before it is multiplied.
func loopedClover(g *Geometry, u *Gauge) *Clover {
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
							a := loopMul3(link(mu, x, y, z, t), link(nu, x1, y1, z1, t1))
							bmat := loopMul3(link(mu, x2, y2, z2, t2), link(nu, x, y, z, t))
							bd := dag3(&bmat)
							l := loopMul3(&a, &bd)
							add3(&q, &l)
						}
						{
							// Leaf 2: U_nu(x) U_mu†(x-mu+nu) U_nu†(x-mu) U_mu(x-mu).
							xm, ym, zm, tm := g.neighbor(x, y, z, t, mu, -1)
							xmn, ymn, zmn, tmn := g.neighbor(xm, ym, zm, tm, nu, +1)
							a := loopMul3(link(nu, x, y, z, t), ptrDag(link(mu, xmn, ymn, zmn, tmn)))
							b := loopMul3(ptrDag(link(nu, xm, ym, zm, tm)), link(mu, xm, ym, zm, tm))
							l := loopMul3(&a, &b)
							add3(&q, &l)
						}
						{
							// Leaf 3: U_mu†(x-mu) U_nu†(x-mu-nu) U_mu(x-mu-nu) U_nu(x-nu).
							xm, ym, zm, tm := g.neighbor(x, y, z, t, mu, -1)
							xmn, ymn, zmn, tmn := g.neighbor(xm, ym, zm, tm, nu, -1)
							xn, yn, zn, tn := g.neighbor(x, y, z, t, nu, -1)
							a := loopMul3(ptrDag(link(mu, xm, ym, zm, tm)), ptrDag(link(nu, xmn, ymn, zmn, tmn)))
							b := loopMul3(link(mu, xmn, ymn, zmn, tmn), link(nu, xn, yn, zn, tn))
							l := loopMul3(&a, &b)
							add3(&q, &l)
						}
						{
							// Leaf 4: U_nu†(x-nu) U_mu(x-nu) U_nu(x+mu-nu) U_mu†(x).
							xn, yn, zn, tn := g.neighbor(x, y, z, t, nu, -1)
							xmn, ymn, zmn, tmn := g.neighbor(xn, yn, zn, tn, mu, +1)
							a := loopMul3(ptrDag(link(nu, xn, yn, zn, tn)), link(mu, xn, yn, zn, tn))
							b := loopMul3(link(nu, xmn, ymn, zmn, tmn), ptrDag(link(mu, x, y, z, t)))
							l := loopMul3(&a, &b)
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

// tableClover is applyClover through the sigma rows: per (plane, spin
// row), one colour multiply of the matching source spin, scaled by the
// complex coefficient csw kappa/2 times the row's entry.
func tableClover(d *Dirac, sigma *[6][4]spinTerm, out, in []complex128, site int) {
	coef := complex(d.Csw*d.Kappa/2, 0)
	i := site - d.G.SliceVol()
	for p := range cloverPairs {
		f := &d.clover.F[p][i]
		for a, tm := range sigma[p] {
			chi := mulArr(f, (*[3]complex128)(in[tm.s*3:]))
			cs := coef * tm.c
			o := (*[3]complex128)(out[a*3:])
			o[0] -= cs * chi[0]
			o[1] -= cs * chi[1]
			o[2] -= cs * chi[2]
		}
	}
}

func TestSigmaMunuHermitian(t *testing.T) {
	for p, s := range sigmaMunu() {
		zero := true
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				if cmplx.Abs(s[a][b]-cmplx.Conj(s[b][a])) > 1e-14 {
					t.Errorf("sigma[%d] not hermitian at %d,%d", p, a, b)
				}
				if s[a][b] != 0 {
					zero = false
				}
			}
		}
		if zero {
			t.Errorf("sigma[%d] is identically zero", p)
		}
	}
}

func TestCloverVanishesOnUnitGauge(t *testing.T) {
	g, err := NewGeometry(4, 4, 4, 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClover(g, NewUnitGauge(g))
	for p := range cl.F {
		for site, f := range cl.F[p] {
			for i, v := range f {
				if cmplx.Abs(v) > 1e-13 {
					t.Fatalf("clover plane %d site %d entry %d = %v, want 0 on unit gauge", p, site, i, v)
				}
			}
		}
	}
}

func TestCloverOperatorEqualsWilsonOnUnitGauge(t *testing.T) {
	g, _ := NewGeometry(4, 4, 4, 4, 1, 0)
	u := NewUnitGauge(g)
	wilson := NewDirac(g, u, Kappa)
	clover := NewDiracClover(g, u, Kappa, Csw)
	src := g.NewField()
	rng := common.NewRNG(13)
	for i := range src {
		src[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	wrapHalo(g, src)
	a, b := g.NewField(), g.NewField()
	wilson.Apply(a, src)
	clover.Apply(b, src)
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("clover term nonzero on unit gauge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCloverFieldHermitian(t *testing.T) {
	g, _ := NewGeometry(4, 4, 4, 4, 1, 0)
	cl := NewClover(g, NewGauge(g, 17))
	for p := range cl.F {
		// Sample a few interior sites.
		for _, coords := range [][4]int{{0, 0, 0, 0}, {1, 2, 3, 1}, {3, 3, 3, 3}} {
			site := g.Index(coords[0], coords[1], coords[2], coords[3])
			f := cl.F[p][site-g.SliceVol()]
			anyNonzero := false
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					if cmplx.Abs(f[3*i+j]-cmplx.Conj(f[3*j+i])) > 1e-12 {
						t.Fatalf("iF plane %d site %d not hermitian", p, site)
					}
					if cmplx.Abs(f[3*i+j]) > 1e-12 {
						anyNonzero = true
					}
				}
			}
			if !anyNonzero {
				t.Errorf("iF plane %d site %d identically zero on random gauge", p, site)
			}
		}
	}
}

func TestCloverChangesOperatorOnRandomGauge(t *testing.T) {
	g, _ := NewGeometry(4, 4, 4, 4, 1, 0)
	u := NewGauge(g, 23)
	wilson := NewDirac(g, u, Kappa)
	clover := NewDiracClover(g, u, Kappa, Csw)
	src := g.NewField()
	rng := common.NewRNG(29)
	for i := range src {
		src[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	wrapHalo(g, src)
	a, b := g.NewField(), g.NewField()
	wilson.Apply(a, src)
	clover.Apply(b, src)
	var diff float64
	for i := range a {
		diff += cmplx.Abs(a[i] - b[i])
	}
	if diff < 1e-6 {
		t.Error("clover term should change the operator on a random gauge field")
	}
}

func TestMul3Dag3(t *testing.T) {
	m := randomSU3(3, 1, 1, 1, 1, 1)
	d := dag3(&m)
	prod := mul3(&m, &d)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(prod[3*i+j]-want) > 1e-12 {
				t.Errorf("U U† [%d][%d] = %v", i, j, prod[3*i+j])
			}
		}
	}
	// The unrolled products, reading adjoints in place, equal the
	// looped product of copied adjoints bit for bit.
	for i := 0; i < 20; i++ {
		a, b := randomSU3(5, i, 0, 0, 0, 0), randomSU3(5, i, 1, 0, 0, 0)
		ad, bd := dag3(&a), dag3(&b)
		for _, c := range []struct {
			name      string
			got, want SU3
		}{
			{"a·b", mul3(&a, &b), loopMul3(&a, &b)},
			{"a·b†", mulDag(&a, &b), loopMul3(&a, &bd)},
			{"a†·b", dagMul(&a, &b), loopMul3(&ad, &b)},
			{"a†·b†", dagDag(&a, &b), loopMul3(&ad, &bd)},
		} {
			for k := range c.want {
				if !sameValue(c.got[k], c.want[k]) {
					t.Fatalf("%s pair %d entry %d: %v, looped %v", c.name, i, k, c.got[k], c.want[k])
				}
			}
		}
	}
}

func TestNewCloverMatchesLoopedBitwise(t *testing.T) {
	for _, g := range pinSlabs(t) {
		for _, seed := range []int64{7, 20210901} {
			u := NewGauge(g, seed)
			got, want := NewClover(g, u), loopedClover(g, u)
			for p := range want.F {
				for i := range want.F[p] {
					for k, w := range want.F[p][i] {
						if v := got.F[p][i][k]; !sameValue(v, w) {
							t.Fatalf("%dx%dx%dx%d rank %d/%d seed %d: plane %d site %d entry %d = %v, looped build gives %v",
								g.LX, g.LY, g.LZ, g.LT, g.Rank, g.Procs, seed, p, i, k, v, w)
						}
					}
				}
			}
		}
	}
}

func TestPlaquetteUnitGauge(t *testing.T) {
	g, _ := NewGeometry(4, 4, 4, 4, 1, 0)
	if p := NewUnitGauge(g).AveragePlaquette(); cmplx.Abs(complex(p-1, 0)) > 1e-13 {
		t.Errorf("unit-gauge plaquette = %v, want 1", p)
	}
}

func TestPlaquetteRandomGaugeDisordered(t *testing.T) {
	g, _ := NewGeometry(4, 4, 4, 8, 1, 0)
	p := NewGauge(g, 99).AveragePlaquette()
	if p < -0.3 || p > 0.3 {
		t.Errorf("random-gauge plaquette = %v, want near 0 (disordered)", p)
	}
	if p == 0 {
		t.Error("exactly zero plaquette is suspicious")
	}
}

func TestSigmaRowsOneNonzero(t *testing.T) {
	rows := sigmaRows()
	for p, s := range sigmaMunu() {
		for a := range s {
			n := 0
			for b, c := range s[a] {
				if c == 0 {
					continue
				}
				n++
				if rows[p][a] != (spinTerm{b, c}) {
					t.Errorf("sigma[%d] row %d: sparse entry %v, want {%d %v}", p, a, rows[p][a], b, c)
				}
			}
			if n != 1 {
				t.Errorf("sigma[%d] row %d has %d nonzeros, want 1", p, a, n)
			}
		}
	}
}

func TestApplyCloverMatchesDenseSpinBitwise(t *testing.T) {
	// The sparse-row clover term must reproduce the dense form (four
	// colour multiplies per plane, then the 4x4 sigma spin multiply)
	// bit for bit: it performs the same arithmetic in the same order.
	g, _ := NewGeometry(4, 4, 4, 4, 1, 0)
	d := NewDiracClover(g, NewGauge(g, 47), Kappa, Csw)
	sig := sigmaMunu()
	src := g.NewField()
	randomSpinor(g, src, 53)
	coef := complex(d.Csw*d.Kappa/2, 0)
	for i := 0; i < g.LocalVol(); i++ {
		site := g.SliceVol() + i
		in := src.At(site)
		got := append([]complex128(nil), in...)
		want := append([]complex128(nil), in...)
		d.applyClover(got, in, site)
		for p := range cloverPairs {
			f := &d.clover.F[p][i]
			var chi [4][3]complex128
			for b := 0; b < 4; b++ {
				v := [3]complex128{in[b*3], in[b*3+1], in[b*3+2]}
				chi[b] = mulArr(f, &v)
			}
			for a := 0; a < 4; a++ {
				for b := 0; b < 4; b++ {
					if sig[p][a][b] == 0 {
						continue
					}
					cs := coef * sig[p][a][b]
					for c := 0; c < 3; c++ {
						want[a*3+c] -= cs * chi[b][c]
					}
				}
			}
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("site %d entry %d: %v, dense form gives %v", site, k, got[k], want[k])
			}
		}
	}
}

// BenchmarkNewClover builds the clover field of one rank's slab of the
// size-small lattice (8x8x8x48 over 4 ranks); the looped sub-benchmark
// runs the reference build.
func BenchmarkNewClover(b *testing.B) {
	g, err := NewGeometry(8, 8, 8, 48, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	u := NewGauge(g, 7)
	for _, bc := range []struct {
		name  string
		build func(*Geometry, *Gauge) *Clover
	}{
		{"unrolled", NewClover},
		{"looped", loopedClover},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.build(g, u)
			}
		})
	}
}
