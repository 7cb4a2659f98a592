package harness

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"fibersim/internal/miniapps/common"
)

func testOpts(apps ...string) Options {
	return Options{Size: common.SizeTest, Apps: apps}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 16 {
		t.Fatalf("want 16 experiments, got %d", len(exps))
	}
	ids := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
		if _, err := LookupExperiment(e.ID); err != nil {
			t.Errorf("LookupExperiment(%s): %v", e.ID, err)
		}
	}
	if _, err := LookupExperiment("F99"); err == nil {
		t.Error("unknown experiment must fail")
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Columns: []string{"a", "b"}}
	tab.AddRow("1", "2")
	tab.Notes = append(tab.Notes, "a note")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "a note", "1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,b\n1,2\n" {
		t.Errorf("CSV = %q", got)
	}
}

func TestTableCell(t *testing.T) {
	tab := &Table{ID: "X", Columns: []string{"app", "v"}}
	tab.AddRow("foo", "42")
	if got, err := tab.Cell("foo", "v"); err != nil || got != "42" {
		t.Errorf("Cell = %q, %v", got, err)
	}
	if _, err := tab.Cell("foo", "nope"); err == nil {
		t.Error("missing column must fail")
	}
	if _, err := tab.Cell("bar", "v"); err == nil {
		t.Error("missing row must fail")
	}
}

func TestTableMachines(t *testing.T) {
	tab, err := TableMachines(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("want 4 machines, got %d", len(tab.Rows))
	}
	bf, err := tab.Cell("a64fx", "B/F")
	if err != nil {
		t.Fatal(err)
	}
	v, err := strconv.ParseFloat(bf, 64)
	if err != nil || v < 0.3 || v > 0.4 {
		t.Errorf("A64FX B/F = %q, want ~0.33", bf)
	}
}

func TestTableMiniapps(t *testing.T) {
	tab, err := TableMiniapps(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 8 {
		t.Errorf("want at least one kernel row per app, got %d", len(tab.Rows))
	}
}

func TestFigDecompositionShape(t *testing.T) {
	// Cheap subset: two contrasting apps. The best decomposition must
	// not be 48x1 for the halo-heavy stencil app.
	tab, err := FigDecomposition(testOpts("ffvc", "ntchem"))
	if err != nil {
		t.Fatal(err)
	}
	best, err := tab.Cell("ffvc", "best")
	if err != nil {
		t.Fatal(err)
	}
	if best == "48x1" {
		t.Errorf("ffvc best decomposition = %s; expected a hybrid to win", best)
	}
}

func TestFigThreadStrideShape(t *testing.T) {
	// Paper finding: shorter strides better. stride1 must beat stride12
	// for the bandwidth-bound stencil app.
	tab, err := FigThreadStride(testOpts("ffvc"))
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := tab.Cell("ffvc", "worst/best")
	if err != nil {
		t.Fatal(err)
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(ratio, "x"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if v < 1.02 {
		t.Errorf("stride sweep spread %.3f; expected a visible stride effect", v)
	}
	s1, _ := tab.Cell("ffvc", "stride1")
	s12, _ := tab.Cell("ffvc", "stride12")
	if s1 == "" || s12 == "" {
		t.Fatal("missing stride cells")
	}
}

func TestFigProcAllocShape(t *testing.T) {
	// Paper finding: allocation method has little impact.
	tab, err := FigProcAlloc(testOpts("ntchem"))
	if err != nil {
		t.Fatal(err)
	}
	spread, err := tab.Cell("ntchem", "spread")
	if err != nil {
		t.Fatal(err)
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(spread, "%"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if v > 25 {
		t.Errorf("allocation spread %.1f%%, expected modest impact", v)
	}
}

func TestFigCompilerTuningShape(t *testing.T) {
	// Paper finding: mvmc improves substantially with SIMD + scheduling.
	tab, err := FigCompilerTuning(Options{Size: common.SizeSmall, Apps: []string{"mvmc"}})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := tab.Cell("mvmc", "speedup")
	if err != nil {
		t.Fatal(err)
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(sp, "x"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if v < 1.5 {
		t.Errorf("mvmc tuning speedup %.2fx, want > 1.5x", v)
	}
}

func TestFigStreamShape(t *testing.T) {
	tab, err := FigStream(Options{Size: common.SizeSmall})
	if err != nil {
		t.Fatal(err)
	}
	a64, err := tab.Cell("a64fx", "GB/s")
	if err != nil {
		t.Fatal(err)
	}
	skl, err := tab.Cell("skylake", "GB/s")
	if err != nil {
		t.Fatal(err)
	}
	av, _ := strconv.ParseFloat(a64, 64)
	sv, _ := strconv.ParseFloat(skl, 64)
	if av <= 2*sv {
		t.Errorf("A64FX triad (%s) should be >2x Skylake (%s) even at test size", a64, skl)
	}
}

func TestSortRows(t *testing.T) {
	tab := &Table{Columns: []string{"a"}}
	tab.AddRow("z")
	tab.AddRow("a")
	tab.SortRowsByFirstColumn()
	if tab.Rows[0][0] != "a" {
		t.Error("sort failed")
	}
}

func TestFigMultiNodeWeakScaling(t *testing.T) {
	tab, err := FigMultiNode(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("want 5 node counts, got %d", len(tab.Rows))
	}
	// Weak-scaling time must be non-decreasing with node count, and
	// 16-node efficiency must stay above 50% on both fabrics.
	for _, col := range []string{"tofud eff", "infiniband eff"} {
		eff16, err := tab.Cell("16", col)
		if err != nil {
			t.Fatal(err)
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(eff16, "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < 50 || v > 101 {
			t.Errorf("%s at 16 nodes = %v%%, want 50-100", col, v)
		}
	}
}

func TestFigPowerModesShape(t *testing.T) {
	// Memory-bound app: eco mode must save energy while costing little
	// time; boost must draw more power than normal.
	tab, err := FigPowerModes(Options{Size: common.SizeSmall, Apps: []string{"ffvc"}})
	if err != nil {
		t.Fatal(err)
	}
	saving, err := tab.Cell("ffvc", "eco J saving")
	if err != nil {
		t.Fatal(err)
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(saving, "%"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Errorf("eco mode should save energy on a memory-bound app, got %v%%", v)
	}
	nw, _ := tab.Cell("ffvc", "normal W")
	bw, _ := tab.Cell("ffvc", "boost W")
	nv, _ := strconv.ParseFloat(nw, 64)
	bv, _ := strconv.ParseFloat(bw, 64)
	if bv <= nv {
		t.Errorf("boost power (%v) should exceed normal (%v)", bv, nv)
	}
}

func TestTableKernelProfile(t *testing.T) {
	tab, err := TableKernelProfile(testOpts("ccsqcd"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 2 {
		t.Fatalf("ccsqcd should profile at least 2 kernels, got %d rows", len(tab.Rows))
	}
	// The dslash must dominate the profile and rows must be sorted by
	// time share.
	if tab.Rows[0][1] != "wilson-clover-dslash" {
		t.Errorf("top kernel = %q, want wilson-clover-dslash", tab.Rows[0][1])
	}
}

func TestFigSizeStudyShape(t *testing.T) {
	// The A64FX advantage for the memory-bound stencil app must grow
	// from test size (cache-resident on the Xeon) to small size
	// (memory-resident everywhere).
	tab, err := FigSizeStudy(Options{Apps: []string{"ffvc"}})
	if err != nil {
		t.Fatal(err)
	}
	small, err := tab.Cell("ffvc", "small")
	if err != nil {
		t.Fatal(err)
	}
	test, err := tab.Cell("ffvc", "test")
	if err != nil {
		t.Fatal(err)
	}
	sv, _ := strconv.ParseFloat(small, 64)
	tv, _ := strconv.ParseFloat(test, 64)
	if sv <= tv {
		t.Errorf("A64FX advantage should grow with size: test %.2f vs small %.2f", tv, sv)
	}
	if sv <= 1 {
		t.Errorf("A64FX should win ffvc at small size, ratio %.2f", sv)
	}
}

func TestTableJSON(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Columns: []string{"a"}, Notes: []string{"n"}}
	tab.AddRow("1")
	var buf bytes.Buffer
	if err := tab.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		ID      string     `json:"id"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.ID != "X" || len(decoded.Rows) != 1 || decoded.Rows[0][0] != "1" {
		t.Errorf("decoded %+v", decoded)
	}
}

func TestTableRoofline(t *testing.T) {
	// Small size: the regimes reflect paper-scale working sets (at test
	// size everything is cache-resident and compute-bound — E3's story).
	tab, err := TableRoofline(Options{Size: common.SizeSmall})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("want 8 apps, got %d", len(tab.Rows))
	}
	// ntchem's blocked DGEMM is the compute-bound outlier.
	regime, err := tab.Cell("ntchem", "regime on a64fx")
	if err != nil {
		t.Fatal(err)
	}
	if regime != "compute-bound" {
		t.Errorf("ntchem regime = %s", regime)
	}
	// The stencil apps are memory-bound on the A64FX too.
	regime, err = tab.Cell("ffvc", "regime on a64fx")
	if err != nil {
		t.Fatal(err)
	}
	if regime != "memory-bound" {
		t.Errorf("ffvc regime = %s", regime)
	}
}

func TestRenderBars(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Columns: []string{"app", "time"}}
	tab.AddRow("fast", "1.5ms")
	tab.AddRow("slow", "3ms")
	tab.AddRow("n/a", "???")
	var buf bytes.Buffer
	if err := tab.RenderBars(&buf, "time"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fast") || !strings.Contains(out, "####") {
		t.Errorf("bars missing:\n%s", out)
	}
	// The longer time must have a longer bar.
	fastLine, slowLine := "", ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "fast") {
			fastLine = line
		}
		if strings.HasPrefix(line, "slow") {
			slowLine = line
		}
	}
	if strings.Count(slowLine, "#") <= strings.Count(fastLine, "#") {
		t.Errorf("bar lengths wrong:\n%s", out)
	}
	if err := tab.RenderBars(&buf, "nope"); err == nil {
		t.Error("unknown column must fail")
	}
	empty := &Table{ID: "Y", Columns: []string{"a", "b"}}
	empty.AddRow("x", "words")
	if err := empty.RenderBars(&buf, "b"); err == nil {
		t.Error("non-numeric column must fail")
	}
}

func TestParseLeadingFloat(t *testing.T) {
	cases := map[string]float64{"4.69ms": 4.69, "2.08x": 2.08, "81%": 81, "1e3s": 1000}
	for in, want := range cases {
		got, ok := parseLeadingFloat(in)
		if !ok || got != want {
			t.Errorf("parseLeadingFloat(%q) = %g, %v", in, got, ok)
		}
	}
	if _, ok := parseLeadingFloat("abc"); ok {
		t.Error("non-numeric accepted")
	}
}

func TestScorecardAllPassAtSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("small-size acceptance test")
	}
	tab, err := TableScorecard(Options{Size: common.SizeSmall})
	if err != nil {
		t.Fatal(err)
	}
	// The evidence strings are model outputs at size small: pinned
	// exactly, as benchmark/golden's scorecard records hold them.
	evidence := []string{
		"2/2 memory-bound apps affected, up to 1.32x",
		"max spread 4.4% across CMG-preserving methods",
		"tuning gains >= 2.08x on the scalar-heavy apps",
		"A64FX wins 2/2 memory-bound apps; as-is mvmc won by skylake",
	}
	if len(tab.Rows) != len(evidence) {
		t.Fatalf("want %d findings, got %d", len(evidence), len(tab.Rows))
	}
	for i, row := range tab.Rows {
		if row[2] != "PASS" {
			t.Errorf("finding %q: %s (%s)", row[0], row[2], row[1])
		}
		if row[1] != evidence[i] {
			t.Errorf("finding %q: evidence %q, want %q", row[0], row[1], evidence[i])
		}
	}
}
