package ffvc

import (
	"math"
	"testing"

	"fibersim/internal/miniapps/common"
	"fibersim/internal/omp"
)

func TestGridValidation(t *testing.T) {
	if _, err := NewGrid(2, 16, 16, 1, 0); err == nil {
		t.Error("tiny grid must fail")
	}
	if _, err := NewGrid(16, 16, 16, 3, 0); err == nil {
		t.Error("non-dividing procs must fail")
	}
	g, err := NewGrid(16, 16, 16, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.NZloc != 4 || g.GlobalK(0) != 8 || g.LocalVol() != 1024 || g.StoredVol() != 1536 {
		t.Errorf("grid wrong: %+v", g)
	}
}

func TestIdxDistinct(t *testing.T) {
	g, _ := NewGrid(8, 8, 8, 2, 0)
	seen := map[int]bool{}
	for k := -1; k <= g.NZloc; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				id := g.Idx(i, j, k)
				if id < 0 || id >= g.StoredVol() || seen[id] {
					t.Fatalf("Idx collision or range error at %d,%d,%d -> %d", i, j, k, id)
				}
				seen[id] = true
			}
		}
	}
}

func TestRunCavity(t *testing.T) {
	res, err := App{}.Run(common.RunConfig{Procs: 2, Threads: 4, Size: common.SizeTest})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("cavity run failed verification: div=%g", res.Check)
	}
	if res.Time <= 0 || res.Figure <= 0 {
		t.Errorf("missing figures: %+v", res)
	}
	if math.IsNaN(res.Check) {
		t.Error("divergence is NaN: unstable integration")
	}
}

func TestDecompositionInvariance(t *testing.T) {
	// The cavity field after N steps must be identical (up to roundoff
	// accumulation order) for any decomposition: compare final max
	// divergence, which is a global functional of the field.
	var checks []float64
	for _, pt := range [][2]int{{1, 4}, {2, 2}, {4, 1}, {8, 2}} {
		res, err := App{}.Run(common.RunConfig{Procs: pt[0], Threads: pt[1], Size: common.SizeTest})
		if err != nil {
			t.Fatalf("%v: %v", pt, err)
		}
		checks = append(checks, res.Check)
	}
	for i := 1; i < len(checks); i++ {
		if math.Abs(checks[i]-checks[0]) > 1e-9*(1+math.Abs(checks[0])) {
			t.Errorf("divergence differs across decompositions: %v", checks)
		}
	}
}

func TestRejectsBadDecomposition(t *testing.T) {
	if _, err := (App{}).Run(common.RunConfig{Procs: 5, Threads: 1, Size: common.SizeTest}); err == nil {
		t.Error("5 ranks on NZ=16 must fail")
	}
}

func TestKernels(t *testing.T) {
	a := common.MustLookup("ffvc")
	ks := a.Kernels(common.SizeSmall)
	if len(ks) != 3 {
		t.Fatalf("want 3 kernels, got %d", len(ks))
	}
	for _, k := range ks {
		if err := k.Validate(); err != nil {
			t.Errorf("kernel %s: %v", k.Name, err)
		}
	}
}

// cellSorColor is sorColor's per-cell form, the reference the row
// sweep is pinned to: every linear cell decodes its (i, j, k) and
// returns early unless it is an interior cell of the color.
func cellSorColor(r *runner, color int) error {
	g := r.st.g
	s := r.st
	h2 := g.h * g.h
	r.env.Team.ParallelFor(r.sch, g.LocalVol(), func(_, lin int) {
		i := lin % g.NX
		j := (lin / g.NX) % g.NY
		k := lin / (g.NX * g.NY)
		gk := g.GlobalK(k)
		if (i+j+gk)%2 != color || !g.interior(i, j, gk) {
			return
		}
		id := g.Idx(i, j, k)
		nb := s.p[g.Idx(i+1, j, k)] + s.p[g.Idx(i-1, j, k)] +
			s.p[g.Idx(i, j+1, k)] + s.p[g.Idx(i, j-1, k)] +
			s.p[g.Idx(i, j, k+1)] + s.p[g.Idx(i, j, k-1)]
		pNew := (nb - h2*s.div[id]) / 6
		s.p[id] += sorW * (pNew - s.p[id])
	}, nil)
	r.flops += 14 * float64(g.LocalVol()) / 2
	return r.env.Charge(r.kS, float64(g.LocalVol())/2)
}

// solvePressure runs Run's time steps at size test on a procs x threads
// launch, relaxing the pressure with sor, and returns every rank's
// pressure field.
func solvePressure(t *testing.T, procs, threads int, sor func(*runner, int) error) [][]float64 {
	t.Helper()
	nx, ny, nz := gridFor(common.SizeTest)
	fields := make([][]float64, procs)
	_, err := common.Launch(common.RunConfig{Procs: procs, Threads: threads}, func(env *common.Env) error {
		g, err := NewGrid(nx, ny, nz, env.Procs(), env.Rank())
		if err != nil {
			return err
		}
		r := &runner{
			env: env, st: newState(g),
			sch: omp.Schedule{Kind: omp.Static},
			kA:  advDiffKernel(g.LocalVol(), common.SizeTest),
			kS:  sorKernel(g.LocalVol(), common.SizeTest),
			kD:  divKernel(g.LocalVol(), common.SizeTest),
		}
		s := r.st
		r.bc(s.u, s.v, s.w)
		for step := 0; step < steps; step++ {
			for _, f := range [][]float64{s.u, s.v, s.w} {
				if err := r.exchange(f, 10); err != nil {
					return err
				}
			}
			if err := r.advectDiffuse(); err != nil {
				return err
			}
			r.bc(s.us, s.vs, s.ws)
			for _, f := range [][]float64{s.us, s.vs, s.ws} {
				if err := r.exchange(f, 20); err != nil {
					return err
				}
			}
			if err := r.divergenceStar(); err != nil {
				return err
			}
			for sweep := 0; sweep < sweeps; sweep++ {
				for color := 0; color < 2; color++ {
					if err := r.exchange(s.p, 30); err != nil {
						return err
					}
					if err := sor(r, color); err != nil {
						return err
					}
				}
			}
			if err := r.exchange(s.p, 40); err != nil {
				return err
			}
			if err := r.project(); err != nil {
				return err
			}
			r.bc(s.u, s.v, s.w)
		}
		fields[env.Rank()] = s.p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fields
}

func TestRowSweepMatchesPerCellBitwise(t *testing.T) {
	// Chunk bounds fall mid-row at 3 threads, and rank boundaries
	// shift the global color parity, so every decomposition checks a
	// different set of row starts.
	for _, pt := range [][2]int{{1, 4}, {2, 3}, {4, 2}, {8, 1}} {
		got := solvePressure(t, pt[0], pt[1], (*runner).sorColor)
		want := solvePressure(t, pt[0], pt[1], cellSorColor)
		for rank := range want {
			for id, w := range want[rank] {
				if got[rank][id] != w {
					t.Fatalf("%dx%d rank %d cell %d: pressure %v, per-cell sweep gives %v",
						pt[0], pt[1], rank, id, got[rank][id], w)
				}
			}
		}
	}
}
