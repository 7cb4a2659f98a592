package ccsqcd

import (
	"math/cmplx"
	"testing"

	"fibersim/internal/miniapps/common"
)

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
				chi[b] = f.MulVec(&v)
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
