package ccsqcd

import (
	"math/cmplx"
	"testing"

	"fibersim/internal/miniapps/common"
	"fibersim/internal/omp"
)

func TestInvert12(t *testing.T) {
	// Random-ish nonsingular block: identity plus small perturbation.
	var a block12
	r := common.NewRNG(7)
	for i := 0; i < 12; i++ {
		a[i*12+i] = 1
		for j := 0; j < 12; j++ {
			a[i*12+j] += complex(0.1*(r.Float64()-0.5), 0.1*(r.Float64()-0.5))
		}
	}
	inv, err := invert12(a)
	if err != nil {
		t.Fatal(err)
	}
	// a * inv = I.
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			var s complex128
			for k := 0; k < 12; k++ {
				s += a[i*12+k] * inv[k*12+j]
			}
			want := complex128(0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(s-want) > 1e-10 {
				t.Fatalf("a*inv[%d][%d] = %v", i, j, s)
			}
		}
	}
}

func TestInvert12Singular(t *testing.T) {
	var a block12 // zero matrix
	if _, err := invert12(a); err == nil {
		t.Fatal("singular block must error")
	}
}

func TestMulVecAliasing(t *testing.T) {
	var m block12
	// Permutation-ish matrix: shift rows.
	for i := 0; i < 12; i++ {
		m[i*12+((i+1)%12)] = 1
	}
	v := make([]complex128, 12)
	for i := range v {
		v[i] = complex(float64(i), 0)
	}
	m.mulVec(v, v) // aliased
	for i := 0; i < 12; i++ {
		want := complex(float64((i+1)%12), 0)
		if v[i] != want {
			t.Fatalf("aliased mulVec[%d] = %v, want %v", i, v[i], want)
		}
	}
}

func TestLocalBlockMatchesApplyClover(t *testing.T) {
	// The explicit 12x12 block must agree with applyClover's
	// matrix-free action on random spinors.
	g, _ := NewGeometry(4, 4, 4, 4, 1, 0)
	u := NewGauge(g, 31)
	d := NewDiracClover(g, u, Kappa, Csw)
	r := common.NewRNG(37)
	site := g.Index(1, 2, 3, 1)
	b := d.localBlock(site)
	for trial := 0; trial < 5; trial++ {
		in := make([]complex128, 12)
		for i := range in {
			in[i] = complex(r.Float64()-0.5, r.Float64()-0.5)
		}
		// Matrix-free: out = in + cloverterm.
		mf := make([]complex128, 12)
		copy(mf, in)
		d.applyClover(mf, in, site)
		// Explicit block.
		ex := make([]complex128, 12)
		b.mulVec(ex, in)
		for i := 0; i < 12; i++ {
			if cmplx.Abs(mf[i]-ex[i]) > 1e-12 {
				t.Fatalf("block mismatch at %d: %v vs %v", i, mf[i], ex[i])
			}
		}
	}
	// Built from applyClover's columns, the block has the entries the
	// sigma-row assembly gives, bit for bit, at every site.
	sigma := sigmaRows()
	for _, seed := range []int64{7, 20210901} {
		d := NewDiracClover(g, NewGauge(g, seed), Kappa, Csw)
		for i := 0; i < g.LocalVol(); i++ {
			site := g.SliceVol() + i
			got, want := d.localBlock(site), tableLocalBlock(d, &sigma, site)
			for k, w := range want {
				if !sameValue(got[k], w) {
					t.Fatalf("seed %d site %d entry %d: %v, sigma table gives %v", seed, site, k, got[k], w)
				}
			}
		}
	}
}

// tableLocalBlock assembles I + clover-term from the sigma rows: the
// reference localBlock's columns are pinned to.
func tableLocalBlock(d *Dirac, sigma *[6][4]spinTerm, site int) block12 {
	var b block12
	for i := 0; i < 12; i++ {
		b[i*12+i] = 1
	}
	coef := complex(d.Csw*d.Kappa/2, 0)
	i := site - d.G.SliceVol()
	for p := range cloverPairs {
		f := &d.clover.F[p][i]
		for a, tm := range sigma[p] {
			cs := coef * tm.c
			for c := 0; c < 3; c++ {
				for c2 := 0; c2 < 3; c2++ {
					b[(a*3+c)*12+(tm.s*3+c2)] -= cs * f[3*c+c2]
				}
			}
		}
	}
	return b
}

// runEO executes the app's workload with the even-odd solver and
// returns (residual, iterations).
func runEO(t *testing.T, procs, threads int) (float64, int) {
	t.Helper()
	var resid float64
	var iters int
	_, err := common.Launch(common.RunConfig{Procs: procs, Threads: threads}, func(env *common.Env) error {
		s, err := newSolver(env, common.SizeTest, 20210901)
		if err != nil {
			return err
		}
		x := s.geo.NewField()
		rr, err := s.SolveEO(x, s.noiseSource(20210901), 200)
		if err != nil {
			return err
		}
		if env.Rank() == 0 {
			resid = rr
			iters = s.iters
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return resid, iters
}

func TestEvenOddSolvesFullSystem(t *testing.T) {
	resid, iters := runEO(t, 2, 2)
	if resid > 1e-8 {
		t.Fatalf("even-odd residual %g (iters %d)", resid, iters)
	}
	if iters < 1 || iters > 200 {
		t.Errorf("iterations %d suspicious", iters)
	}
}

func TestEvenOddConvergesFasterThanFull(t *testing.T) {
	// The textbook property: the Schur system needs fewer Krylov
	// iterations than the full operator.
	_, eoIters := runEO(t, 1, 4)
	res, err := App{}.Run(common.RunConfig{Procs: 1, Threads: 4, Size: common.SizeTest})
	if err != nil {
		t.Fatal(err)
	}
	fullIters := int(res.Figure)
	if eoIters >= fullIters {
		t.Errorf("even-odd iterations (%d) should beat full (%d)", eoIters, fullIters)
	}
}

func TestEvenOddDecompositionInvariance(t *testing.T) {
	_, i1 := runEO(t, 1, 4)
	_, i2 := runEO(t, 4, 1)
	if i1 != i2 {
		t.Errorf("even-odd iterations differ across decompositions: %d vs %d", i1, i2)
	}
}

func TestParityPartition(t *testing.T) {
	// Even/odd lists partition the interior and alternate correctly.
	_, err := common.Launch(common.RunConfig{Procs: 2, Threads: 1}, func(env *common.Env) error {
		geo, err := NewGeometry(4, 4, 4, 8, env.Procs(), env.Rank())
		if err != nil {
			return err
		}
		s := &solver{env: env, geo: geo, vol: geo.LocalVol(),
			op:  NewDiracClover(geo, NewGauge(geo, 1), Kappa, Csw),
			kD:  dslashKernel(geo.LocalVol(), common.SizeTest),
			kL:  linalgKernel(geo.LocalVol(), common.SizeTest),
			sch: schedStatic()}
		eo, err := newEOSolver(s)
		if err != nil {
			return err
		}
		if len(eo.even)+len(eo.odd) != s.vol {
			t.Errorf("parity lists cover %d sites, want %d", len(eo.even)+len(eo.odd), s.vol)
		}
		if len(eo.even) != len(eo.odd) {
			t.Errorf("even/odd imbalance: %d vs %d", len(eo.even), len(eo.odd))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// schedStatic is shared by the EO tests.
func schedStatic() omp.Schedule { return omp.Schedule{Kind: omp.Static} }
