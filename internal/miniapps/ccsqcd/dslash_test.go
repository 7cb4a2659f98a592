package ccsqcd

import (
	"fmt"
	"math/cmplx"
	"runtime"
	"testing"

	"fibersim/internal/miniapps/common"
)

// The table-driven operator: the hop projectors factored as sparse
// coefficient tables (hopProj) and one generic hop that multiplies by
// every coefficient, plus the sigma rows for the clover term
// (tableClover in clover_test.go). The written-out addHops and
// applyClover are pinned to it bit for bit.

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
			chi[k] = dagMulArr(m, &v)
		} else {
			chi[k] = mulArr(m, &v)
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

// tableHops is addHops through the tables: the eight hops in the same
// order, each a generic hop over hopProj.
func tableHops(d *Dirac, out []complex128, src Field, x, y, z, t int) {
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

// mulArr and dagMulArr are mulVec and dagMulVec on the colour arrays
// the table-driven and dense forms use.
func mulArr(m *SU3, v *[3]complex128) [3]complex128 {
	c0, c1, c2 := m.mulVec(vec(v))
	return [3]complex128{c0, c1, c2}
}

func dagMulArr(m *SU3, v *[3]complex128) [3]complex128 {
	c0, c1, c2 := m.dagMulVec(vec(v))
	return [3]complex128{c0, c1, c2}
}

// tableOperator applies d with the table-driven hops and clover term.
type tableOperator struct {
	d     *Dirac
	sigma [6][4]spinTerm
}

func newTableOperator(d *Dirac) *tableOperator {
	return &tableOperator{d: d, sigma: sigmaRows()}
}

// apply is D over the whole slab (halos must be current).
func (r *tableOperator) apply(dst, src Field) {
	g := r.d.G
	for i := 0; i < g.LocalVol(); i++ {
		x, y, z, t := g.SiteOfLinear(i)
		site := g.Index(x, y, z, t)
		out, in := dst.At(site), src.At(site)
		copy(out, in)
		tableHops(r.d, out, src, x, y, z, t)
		if r.d.clover != nil {
			tableClover(r.d, &r.sigma, out, in, site)
		}
	}
}

// exactArch reports whether the pins can demand equal bits. On amd64
// Go fuses a multiply-add only for an explicit math.FMA, so two forms
// that round the same operations in the same order agree exactly.
// arm64, ppc64, s390x and riscv64 may fuse x*y+z, and not in the same
// places in both forms, so there the pins allow rounding differences.
var exactArch = runtime.GOARCH == "amd64"

// sameValue is == on exactArch and a relative 1e-12 elsewhere.
func sameValue(got, want complex128) bool {
	if exactArch {
		return got == want
	}
	return cmplx.Abs(got-want) <= 1e-12*(1+cmplx.Abs(want))
}

// pinSlabs lists the geometries the bitwise pins sweep: a single-rank
// 4^4 lattice, whose halos wrap onto its own slices, and every rank of
// two multi-rank slabs, whose halo slices belong to the neighbours.
func pinSlabs(t testing.TB) []*Geometry {
	t.Helper()
	var out []*Geometry
	for _, s := range [][5]int{{4, 4, 4, 4, 1}, {6, 4, 8, 12, 3}, {2, 6, 4, 8, 4}} {
		for rank := 0; rank < s[4]; rank++ {
			g, err := NewGeometry(s[0], s[1], s[2], s[3], s[4], rank)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, g)
		}
	}
	return out
}

// pinSource returns a random spinor field on g. A multi-rank slab gets
// random halo slices too, standing in for what an exchange delivers.
func pinSource(g *Geometry, seed int64) Field {
	f := g.NewField()
	if g.Procs == 1 {
		randomSpinor(g, f, seed)
		return f
	}
	rng := common.NewRNG(seed)
	for k := range f {
		f[k] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	return f
}

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
			chi[s] = dagMulArr(m, &v)
		} else {
			chi[s] = mulArr(m, &v)
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
	// D must match the dense four-multiply reference to rounding, and
	// the table-driven form bit for bit: the written-out hops and
	// clover term make the tables' products by ±1, ±i and 2 exactly and
	// keep every other operation in order. Wilson and Wilson-Clover, on
	// every pin slab, at two gauge seeds.
	for _, g := range pinSlabs(t) {
		src := pinSource(g, 43)
		for _, seed := range []int64{7, 20210901} {
			u := NewGauge(g, seed)
			for _, op := range []struct {
				name string
				d    *Dirac
			}{
				{"wilson", NewDirac(g, u, Kappa)},
				{"wilson-clover", NewDiracClover(g, u, Kappa, Csw)},
			} {
				got, dense, tables := g.NewField(), g.NewField(), g.NewField()
				op.d.Apply(got, src)
				newRefOperator(op.d).apply(dense, src)
				newTableOperator(op.d).apply(tables, src)
				where := fmt.Sprintf("%s %dx%dx%dx%d rank %d/%d seed %d", op.name, g.LX, g.LY, g.LZ, g.LT, g.Rank, g.Procs, seed)
				for i := 0; i < g.LocalVol(); i++ {
					site := g.SliceVol() + i
					for k, v := range got.At(site) {
						if diff := cmplx.Abs(v - dense.At(site)[k]); diff > 1e-13 {
							t.Fatalf("%s: site %d entry %d differs from reference by %g", where, site, k, diff)
						}
						if w := tables.At(site)[k]; !sameValue(v, w) {
							t.Fatalf("%s: site %d entry %d = %v, tables give %v", where, site, k, v, w)
						}
					}
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
// single-rank lattice. The tables sub-benchmark runs the same sweep
// with the table-driven hops and clover term, the reference one with
// the four-multiply hops.
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
		{"tables", newTableOperator(d).apply},
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
