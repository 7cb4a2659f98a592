package modylas

import (
	"math"
	"slices"
	"testing"

	"fibersim/internal/miniapps/common"
	"fibersim/internal/omp"
)

func TestSystemSetup(t *testing.T) {
	s := NewSystem(256, 6, 1)
	if s.N != 256 || math.Abs(s.Rc-1.0/6) > 1e-15 {
		t.Errorf("system wrong: N=%d Rc=%g", s.N, s.Rc)
	}
	// Neutral and momentum-free.
	var q float64
	var p [3]float64
	for i := 0; i < s.N; i++ {
		q += s.Q[i]
		for d := 0; d < 3; d++ {
			p[d] += s.V[i][d]
		}
	}
	if q != 0 {
		t.Errorf("net charge %g", q)
	}
	for d := 0; d < 3; d++ {
		if math.Abs(p[d]) > 1e-10 {
			t.Errorf("net momentum %v", p)
		}
	}
	// All particles inside the box.
	for i := 0; i < s.N; i++ {
		for d := 0; d < 3; d++ {
			if s.X[i][d] < 0 || s.X[i][d] >= s.Box {
				t.Fatalf("particle %d outside box: %v", i, s.X[i])
			}
		}
	}
}

func TestCellsPartition(t *testing.T) {
	s := NewSystem(256, 6, 2)
	cells := s.buildCells(&cellScratch{})
	total := 0
	for _, c := range cells {
		total += len(c)
	}
	if total != s.N {
		t.Errorf("cells hold %d particles, want %d", total, s.N)
	}
}

// appendCells is the reference cell-list build: one append per
// particle into its cell's own slice.
func appendCells(s *System) [][]int32 {
	lists := make([][]int32, s.Cells*s.Cells*s.Cells)
	for i := 0; i < s.N; i++ {
		id := s.cellID(s.cellOf(s.X[i]))
		lists[id] = append(lists[id], int32(i))
	}
	return lists
}

// TestBuildCellsMatchesAppend builds the cells and multipoles of four
// different systems into one scratch, so every build after the first
// reuses buffers that another system filled, and compares them with a
// fresh build.
func TestBuildCellsMatchesAppend(t *testing.T) {
	var sc cellScratch
	for _, c := range []struct {
		n, cells int
		seed     int64
	}{{256, 6, 2}, {1000, 4, 7}, {2048, 8, 20210901}, {30, 5, 11}} {
		s := NewSystem(c.n, c.cells, c.seed)
		got, want := s.buildCells(&sc), appendCells(s)
		if len(got) != len(want) {
			t.Fatalf("n=%d cells=%d: %d lists, want %d", c.n, c.cells, len(got), len(want))
		}
		for id := range want {
			if !slices.Equal(got[id], want[id]) {
				t.Errorf("n=%d cells=%d cell %d: %v, want %v", c.n, c.cells, id, got[id], want[id])
			}
			if cap(got[id]) != len(got[id]) {
				t.Errorf("n=%d cells=%d cell %d: cap %d, len %d", c.n, c.cells, id, cap(got[id]), len(got[id]))
			}
		}
		if !slices.Equal(s.buildMultipoles(got, &sc), s.buildMultipoles(want, &cellScratch{})) {
			t.Errorf("n=%d cells=%d: multipoles built in reused scratch differ from a fresh build", c.n, c.cells)
		}
	}
}

func TestMultipoleNeutralCellsHaveDipoles(t *testing.T) {
	s := NewSystem(256, 6, 3)
	var sc cellScratch
	mps := s.buildMultipoles(s.buildCells(&sc), &sc)
	var anyDipole bool
	for _, mp := range mps {
		if math.Abs(mp.d[0])+math.Abs(mp.d[1])+math.Abs(mp.d[2]) > 1e-12 {
			anyDipole = true
		}
	}
	if !anyDipole {
		t.Error("expected nonzero dipole moments")
	}
}

func TestMultipoleForcesMatchDirect(t *testing.T) {
	// The FMM substitution must stay close to the direct minimum-image
	// sum: relative RMS force error below a few percent.
	s := NewSystem(256, 6, 20210901)
	f := make([][3]float64, s.N)
	u := make([]float64, s.N)
	_, err := common.Launch(common.RunConfig{Procs: 1, Threads: 4}, func(env *common.Env) error {
		s.Forces(env.Team, schDynamic(), 0, s.N, f, u)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var num, den float64
	for i := 0; i < s.N; i += 4 {
		df, _ := s.DirectForces(i)
		for k := 0; k < 3; k++ {
			d := f[i][k] - df[k]
			num += d * d
			den += df[k] * df[k]
		}
	}
	relErr := math.Sqrt(num / den)
	if relErr > 0.05 {
		t.Errorf("multipole force error %.3f, want < 0.05", relErr)
	}
}

func TestPairForceAntisymmetric(t *testing.T) {
	s := NewSystem(64, 6, 5)
	fij, uij := s.pairLJCoulomb(s.X[0], s.Q[0], s.X[1], s.Q[1])
	fji, uji := s.pairLJCoulomb(s.X[1], s.Q[1], s.X[0], s.Q[0])
	for k := 0; k < 3; k++ {
		if math.Abs(fij[k]+fji[k]) > 1e-12 {
			t.Errorf("forces not antisymmetric: %v vs %v", fij, fji)
		}
	}
	if math.Abs(uij-uji) > 1e-12 {
		t.Error("pair energy not symmetric")
	}
}

func TestRunConservesEnergy(t *testing.T) {
	res, err := App{}.Run(common.RunConfig{Procs: 2, Threads: 4, Size: common.SizeTest})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("energy drift %g too large", res.Check)
	}
	if res.Time <= 0 || res.Figure <= 0 {
		t.Errorf("missing metrics: %+v", res)
	}
}

func TestDecompositionInvariance(t *testing.T) {
	var drifts []float64
	for _, pt := range [][2]int{{1, 4}, {2, 2}, {4, 1}} {
		res, err := App{}.Run(common.RunConfig{Procs: pt[0], Threads: pt[1], Size: common.SizeTest})
		if err != nil {
			t.Fatalf("%v: %v", pt, err)
		}
		if !res.Verified {
			t.Fatalf("%v: drift %g", pt, res.Check)
		}
		drifts = append(drifts, res.Check)
	}
	for i := 1; i < len(drifts); i++ {
		if math.Abs(drifts[i]-drifts[0]) > 1e-6 {
			t.Errorf("drifts differ across decompositions: %v", drifts)
		}
	}
}

func TestKernels(t *testing.T) {
	a := common.MustLookup("modylas")
	for _, k := range a.Kernels(common.SizeSmall) {
		if err := k.Validate(); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
	}
}

// schDynamic returns the schedule the app itself uses.
func schDynamic() omp.Schedule { return omp.Schedule{Kind: omp.Dynamic, Chunk: 8} }

func TestRDFShape(t *testing.T) {
	s := NewSystem(512, 6, 123)
	r, g, err := s.RDF(24, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 24 || len(g) != 24 {
		t.Fatal("wrong bin count")
	}
	// Excluded volume: jittered-lattice particles never overlap, so the
	// innermost shells are empty.
	if g[0] != 0 {
		t.Errorf("g(r->0) = %g, want 0 (no overlaps)", g[0])
	}
	// Lattice structure: some shell well above ideal, and mid-range
	// bins near the ideal-gas value.
	var peak float64
	for _, v := range g {
		if v > peak {
			peak = v
		}
	}
	if peak < 1.5 {
		t.Errorf("no structure peak in g(r): max %g", peak)
	}
	// Band average over moderate r: individual bins are spiky (the
	// jittered lattice has discrete shells) but the average over a band
	// sits at order unity, reduced somewhat by the open cluster's edge
	// truncation.
	var band float64
	for b := 6; b < 18; b++ {
		band += g[b]
	}
	band /= 12
	if band < 0.3 || band > 1.5 {
		t.Errorf("band-averaged g = %g, want order 1", band)
	}
}

func TestRDFValidation(t *testing.T) {
	s := NewSystem(64, 6, 1)
	if _, _, err := s.RDF(0, 0.3); err == nil {
		t.Error("zero bins must fail")
	}
	if _, _, err := s.RDF(10, 0); err == nil {
		t.Error("zero rMax must fail")
	}
	if _, _, err := s.RDF(10, 2); err == nil {
		t.Error("rMax beyond box must fail")
	}
}
