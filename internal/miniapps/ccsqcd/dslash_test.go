package ccsqcd

import (
	"math/cmplx"
	"testing"

	"fibersim/internal/miniapps/common"
)

// The reference operator: every hop multiplies all four spin
// components by the link and then applies the dense 4x4 spin matrix
// 1∓gamma_mu, 32 SU(3) matrix-vector products per site. The
// spin-projected kernel is pinned to it.

// projectors precomputes (1 - gamma_mu) and (1 + gamma_mu).
func projectors() (minus, plus [4]spinMat) {
	gs := gamma()
	for mu := 0; mu < 4; mu++ {
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				var id complex128
				if a == b {
					id = 1
				}
				minus[mu][a][b] = id - gs[mu][a][b]
				plus[mu][a][b] = id + gs[mu][a][b]
			}
		}
	}
	return minus, plus
}

// refHop accumulates -kappa * P ⊗ M * src(site) into out (12 complex).
func refHop(out []complex128, p *spinMat, m *SU3, src []complex128, dagger bool, kappa float64) {
	// Color multiply per spin: chi[s] = M (or M†) * psi[s].
	var chi [4][3]complex128
	for s := 0; s < 4; s++ {
		v := [3]complex128{src[s*3], src[s*3+1], src[s*3+2]}
		if dagger {
			chi[s] = m.DagMulVec(&v)
		} else {
			chi[s] = m.MulVec(&v)
		}
	}
	// Spin multiply: out[a] -= kappa * sum_b P[a][b] chi[b].
	k := complex(kappa, 0)
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			c := p[a][b]
			if c == 0 {
				continue
			}
			kc := k * c
			out[a*3+0] -= kc * chi[b][0]
			out[a*3+1] -= kc * chi[b][1]
			out[a*3+2] -= kc * chi[b][2]
		}
	}
}

// refOperator applies d's operator with the reference hops.
type refOperator struct {
	d      *Dirac
	pm, pp [4]spinMat
}

func newRefOperator(d *Dirac) *refOperator {
	r := &refOperator{d: d}
	r.pm, r.pp = projectors()
	return r
}

// applySite computes dst(x) = (D src)(x) for one interior site.
func (r *refOperator) applySite(dst, src Field, x, y, z, t int) {
	d, g := r.d, r.d.G
	site := g.Index(x, y, z, t)
	out := dst.At(site)
	in := src.At(site)
	copy(out, in)
	xp, xm := (x+1)%g.LX, (x-1+g.LX)%g.LX
	yp, ym := (y+1)%g.LY, (y-1+g.LY)%g.LY
	zp, zm := (z+1)%g.LZ, (z-1+g.LZ)%g.LZ
	nbs := [4][2]int{
		{g.Index(xp, y, z, t), g.Index(xm, y, z, t)},
		{g.Index(x, yp, z, t), g.Index(x, ym, z, t)},
		{g.Index(x, y, zp, t), g.Index(x, y, zm, t)},
		{g.Index(x, y, z, t+1), g.Index(x, y, z, t-1)},
	}
	for mu, n := range nbs {
		refHop(out, &r.pm[mu], &d.U.U[mu][site], src.At(n[0]), false, d.Kappa)
		refHop(out, &r.pp[mu], &d.U.U[mu][n[1]], src.At(n[1]), true, d.Kappa)
	}
	if d.clover != nil {
		d.applyClover(out, in, site)
	}
}

// apply is D over the whole slab (halos must be current).
func (r *refOperator) apply(dst, src Field) {
	for i := 0; i < r.d.G.LocalVol(); i++ {
		x, y, z, t := r.d.G.SiteOfLinear(i)
		r.applySite(dst, src, x, y, z, t)
	}
}

// randomSpinor fills f's interior and wraps its halos.
func randomSpinor(g *Geometry, f Field, seed int64) {
	rng := common.NewRNG(seed)
	for k := g.SliceVol() * spinorLen; k < (g.SliceVol()+g.LocalVol())*spinorLen; k++ {
		f[k] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	wrapHalo(g, f)
}

func TestHopProjFactorsProjectors(t *testing.T) {
	minus, plus := projectors()
	for mu := 0; mu < 4; mu++ {
		for sign, want := range [2]*spinMat{&minus[mu], &plus[mu]} {
			h := &hopProj[mu][sign]
			var q [2][4]complex128
			for k, row := range h.q {
				for _, tm := range row {
					q[k][tm.s] += tm.c
				}
			}
			var got spinMat
			for a, row := range h.r {
				for _, tm := range row {
					for b := 0; b < 4; b++ {
						got[a][b] += tm.c * q[tm.s][b]
					}
				}
			}
			if got != *want {
				t.Errorf("mu=%d sign=%d: R·Q = %v, want %v", mu, sign, got, *want)
			}
		}
	}
}

func TestDiracMatchesReference(t *testing.T) {
	g, err := NewGeometry(4, 4, 4, 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	u := NewGauge(g, 41)
	src := g.NewField()
	randomSpinor(g, src, 43)
	for _, op := range []struct {
		name string
		d    *Dirac
	}{
		{"wilson", NewDirac(g, u, Kappa)},
		{"wilson-clover", NewDiracClover(g, u, Kappa, Csw)},
	} {
		got, want := g.NewField(), g.NewField()
		op.d.Apply(got, src)
		newRefOperator(op.d).apply(want, src)
		for i := 0; i < g.LocalVol(); i++ {
			site := g.SliceVol() + i
			for k, w := range want.At(site) {
				if diff := cmplx.Abs(got.At(site)[k] - w); diff > 1e-13 {
					t.Fatalf("%s: site %d entry %d differs from reference by %g", op.name, site, k, diff)
				}
			}
		}
	}
}

// solveIters runs the size-test solve at 2x4 and returns its BiCGStab
// iteration count, with the reference operator plugged in if asked.
func solveIters(t *testing.T, seed int64, reference bool) int {
	t.Helper()
	var iters int
	_, err := common.Launch(common.RunConfig{Procs: 2, Threads: 4}, func(env *common.Env) error {
		s, err := newSolver(env, common.SizeTest, seed)
		if err != nil {
			return err
		}
		if reference {
			ref := newRefOperator(s.op)
			s.apply = func(dst, src Field) error {
				if err := s.exchangeHalo(src); err != nil {
					return err
				}
				ref.apply(dst, src)
				return nil
			}
		}
		x := s.geo.NewField()
		if _, err := s.bicgstab(x, s.noiseSource(seed), 200); err != nil {
			return err
		}
		if env.Rank() == 0 {
			iters = s.iters
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return iters
}

func TestSolverStopsWithReference(t *testing.T) {
	for _, seed := range []int64{7, 20210901} {
		fast, ref := solveIters(t, seed, false), solveIters(t, seed, true)
		if fast != ref {
			t.Errorf("seed %d: spin-projected solve stops at iteration %d, reference at %d", seed, fast, ref)
		}
	}
}

// BenchmarkDiracApply sweeps the Wilson-Clover operator over an 8^4
// single-rank lattice; the reference sub-benchmark runs the same sweep
// with the four-multiply hops.
func BenchmarkDiracApply(b *testing.B) {
	g, err := NewGeometry(8, 8, 8, 8, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	d := NewDiracClover(g, NewGauge(g, 7), Kappa, Csw)
	src, dst := g.NewField(), g.NewField()
	randomSpinor(g, src, 11)
	for _, bc := range []struct {
		name  string
		apply func(dst, src Field)
	}{
		{"spin-projected", d.Apply},
		{"reference", newRefOperator(d).apply},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.apply(dst, src)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.LocalVol()), "ns/site")
		})
	}
}
