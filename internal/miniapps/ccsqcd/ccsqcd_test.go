package ccsqcd

import (
	"math"
	"math/cmplx"
	"testing"

	"fibersim/internal/miniapps/common"
)

func TestGeometry(t *testing.T) {
	g, err := NewGeometry(4, 4, 4, 16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.LTloc != 4 || g.SliceVol() != 64 || g.LocalVol() != 256 || g.StoredVol() != 384 {
		t.Errorf("geometry wrong: %+v", g)
	}
	// GlobalT with rank offset and periodic wrap.
	if g.GlobalT(0) != 4 || g.GlobalT(-1) != 3 || g.GlobalT(4) != 8 {
		t.Errorf("GlobalT wrong: %d %d %d", g.GlobalT(0), g.GlobalT(-1), g.GlobalT(4))
	}
	last := &Geometry{LX: 4, LY: 4, LZ: 4, LT: 16, Procs: 4, Rank: 3, LTloc: 4}
	if last.GlobalT(4) != 0 {
		t.Errorf("periodic wrap broken: %d", last.GlobalT(4))
	}
}

func TestGeometryErrors(t *testing.T) {
	if _, err := NewGeometry(1, 4, 4, 16, 1, 0); err == nil {
		t.Error("tiny lattice must fail")
	}
	if _, err := NewGeometry(4, 4, 4, 16, 3, 0); err == nil {
		t.Error("non-dividing procs must fail")
	}
}

func TestIndexLinearRoundTrip(t *testing.T) {
	g, _ := NewGeometry(4, 6, 2, 8, 2, 0)
	seen := map[int]bool{}
	for i := 0; i < g.LocalVol(); i++ {
		x, y, z, tt := g.SiteOfLinear(i)
		site := g.Index(x, y, z, tt)
		if seen[site] {
			t.Fatalf("site %d hit twice", site)
		}
		seen[site] = true
		if site < 0 || site >= g.StoredVol() {
			t.Fatalf("site %d out of range", site)
		}
		// t is outermost, so the interior is one contiguous run.
		if site != g.SliceVol()+i {
			t.Fatalf("interior index %d at storage site %d, want %d", i, site, g.SliceVol()+i)
		}
	}
	if len(seen) != g.LocalVol() {
		t.Errorf("covered %d sites, want %d", len(seen), g.LocalVol())
	}
}

func TestSU3Unitarity(t *testing.T) {
	m := randomSU3(1, 2, 3, 0, 1, 2)
	// m * m† should be the identity.
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			var s complex128
			for k := 0; k < 3; k++ {
				s += m[3*r+k] * complex(real(m[3*c+k]), -imag(m[3*c+k]))
			}
			want := complex128(0)
			if r == c {
				want = 1
			}
			if cmplx.Abs(s-want) > 1e-12 {
				t.Errorf("U U†[%d][%d] = %v, want %v", r, c, s, want)
			}
		}
	}
	// Determinant should have modulus 1.
	det := m[0]*(m[4]*m[8]-m[5]*m[7]) - m[1]*(m[3]*m[8]-m[5]*m[6]) + m[2]*(m[3]*m[7]-m[4]*m[6])
	if math.Abs(cmplx.Abs(det)-1) > 1e-12 {
		t.Errorf("|det| = %g, want 1", cmplx.Abs(det))
	}
}

func TestSU3MulVecDagMulVec(t *testing.T) {
	m := randomSU3(7, 0, 0, 0, 0, 0)
	v := [3]complex128{1, 2i, -1}
	mv := mulArr(&m, &v)
	// m† m v should return v (unitarity).
	back := dagMulArr(&m, &mv)
	for i := 0; i < 3; i++ {
		if cmplx.Abs(back[i]-v[i]) > 1e-12 {
			t.Errorf("U†Uv[%d] = %v, want %v", i, back[i], v[i])
		}
	}
}

func TestGammaHermitianSquareOne(t *testing.T) {
	for mu, g := range gamma() {
		// Hermitian.
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				if cmplx.Abs(g[a][b]-complex(real(g[b][a]), -imag(g[b][a]))) > 1e-15 {
					t.Errorf("gamma[%d] not hermitian at %d,%d", mu, a, b)
				}
			}
		}
		// Squares to identity.
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				var s complex128
				for k := 0; k < 4; k++ {
					s += g[a][k] * g[k][b]
				}
				want := complex128(0)
				if a == b {
					want = 1
				}
				if cmplx.Abs(s-want) > 1e-15 {
					t.Errorf("gamma[%d]^2 != I at %d,%d: %v", mu, a, b, s)
				}
			}
		}
	}
}

// serialDirac builds a single-rank operator with filled halos.
func serialDirac(t *testing.T, lx, ly, lz, lt int) (*Dirac, *Geometry) {
	t.Helper()
	g, err := NewGeometry(lx, ly, lz, lt, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	u := NewGauge(g, 11)
	return NewDirac(g, u, Kappa), g
}

// wrapHalo fills the halo slices for a single-rank field.
func wrapHalo(g *Geometry, f Field) {
	sv := g.SliceVol() * spinorLen
	top := g.Index(0, 0, 0, g.LTloc-1) * spinorLen
	bottomHalo := g.Index(0, 0, 0, -1) * spinorLen
	copy(f[bottomHalo:bottomHalo+sv], f[top:top+sv])
	first := g.Index(0, 0, 0, 0) * spinorLen
	topHalo := g.Index(0, 0, 0, g.LTloc) * spinorLen
	copy(f[topHalo:topHalo+sv], f[first:first+sv])
}

func TestDiracLinearity(t *testing.T) {
	d, g := serialDirac(t, 4, 4, 4, 4)
	a := g.NewField()
	b := g.NewField()
	rng := common.NewRNG(3)
	for i := 0; i < g.LocalVol(); i++ {
		x, y, z, tt := g.SiteOfLinear(i)
		off := g.Index(x, y, z, tt) * spinorLen
		for k := 0; k < spinorLen; k++ {
			a[off+k] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
			b[off+k] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
	}
	apply := func(src Field) Field {
		wrapHalo(g, src)
		dst := g.NewField()
		d.Apply(dst, src)
		return dst
	}
	da, db := apply(a), apply(b)
	sum := g.NewField()
	for i := range sum {
		sum[i] = 2*a[i] + 3i*b[i]
	}
	dsum := apply(sum)
	for i := 0; i < g.LocalVol(); i++ {
		x, y, z, tt := g.SiteOfLinear(i)
		off := g.Index(x, y, z, tt) * spinorLen
		for k := 0; k < spinorLen; k++ {
			want := 2*da[off+k] + 3i*db[off+k]
			if cmplx.Abs(dsum[off+k]-want) > 1e-10 {
				t.Fatalf("linearity violated at %d: %v vs %v", off+k, dsum[off+k], want)
			}
		}
	}
}

func TestDiracKappaZeroIsIdentity(t *testing.T) {
	g, _ := NewGeometry(4, 4, 4, 4, 1, 0)
	u := NewGauge(g, 5)
	d := NewDirac(g, u, 0)
	src := g.NewField()
	rng := common.NewRNG(9)
	for i := range src {
		src[i] = complex(rng.Float64(), rng.Float64())
	}
	wrapHalo(g, src)
	dst := g.NewField()
	d.Apply(dst, src)
	for i := 0; i < g.LocalVol(); i++ {
		x, y, z, tt := g.SiteOfLinear(i)
		off := g.Index(x, y, z, tt) * spinorLen
		for k := 0; k < spinorLen; k++ {
			if cmplx.Abs(dst[off+k]-src[off+k]) > 1e-15 {
				t.Fatalf("kappa=0 should be identity at %d", off+k)
			}
		}
	}
}

func TestRunSolvesTestLattice(t *testing.T) {
	res, err := App{}.Run(common.RunConfig{Procs: 2, Threads: 4, Size: common.SizeTest})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("solver did not converge: residual %g after %g iters", res.Check, res.Figure)
	}
	if res.Time <= 0 || res.Flops <= 0 {
		t.Errorf("missing timing: %+v", res)
	}
	if res.Figure < 1 || res.Figure > 200 {
		t.Errorf("iteration count %g suspicious", res.Figure)
	}
}

func TestDecompositionInvariance(t *testing.T) {
	// The same global system must converge to the same residual and
	// iteration count regardless of the MPI x OpenMP decomposition.
	var iters []float64
	for _, pt := range [][2]int{{1, 8}, {2, 4}, {4, 2}, {8, 1}} {
		res, err := App{}.Run(common.RunConfig{Procs: pt[0], Threads: pt[1], Size: common.SizeTest})
		if err != nil {
			t.Fatalf("%dx%d: %v", pt[0], pt[1], err)
		}
		if !res.Verified {
			t.Fatalf("%dx%d: residual %g", pt[0], pt[1], res.Check)
		}
		iters = append(iters, res.Figure)
	}
	for i := 1; i < len(iters); i++ {
		if iters[i] != iters[0] {
			t.Errorf("iteration counts differ across decompositions: %v", iters)
		}
	}
}

func TestRunRejectsBadDecomposition(t *testing.T) {
	if _, err := (App{}).Run(common.RunConfig{Procs: 3, Threads: 1, Size: common.SizeTest}); err == nil {
		t.Error("3 ranks on LT=16 must fail")
	}
}

func TestKernelsRegistered(t *testing.T) {
	a, err := common.Lookup("ccsqcd")
	if err != nil {
		t.Fatal(err)
	}
	ks := a.Kernels(common.SizeSmall)
	if len(ks) != 2 {
		t.Fatalf("want 2 kernels, got %d", len(ks))
	}
	for _, k := range ks {
		if err := k.Validate(); err != nil {
			t.Errorf("kernel %s invalid: %v", k.Name, err)
		}
	}
	if a.Description() == "" {
		t.Error("empty description")
	}
}
