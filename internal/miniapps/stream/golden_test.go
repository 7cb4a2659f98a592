package stream

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"fibersim/internal/core"
	"fibersim/internal/miniapps/common"
	"fibersim/internal/mpi"
	"fibersim/internal/vtime"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json")

// exactArch reports whether the golden can demand equal bits. On amd64
// Go fuses a multiply-add only for an explicit math.FMA; arm64, ppc64,
// s390x and riscv64 may fuse x*y+z, so there the model's sums may
// round differently and the golden allows a relative 1e-12.
var exactArch = runtime.GOARCH == "amd64"

// modelFields are the model outputs of one run, as the golden holds
// them.
type modelFields struct {
	Time      float64
	GFlops    float64
	Breakdown vtime.Breakdown
	Figure    float64
	Kernels   map[string]common.KernelStats
	Comm      mpi.CommStats
	Check     float64
	Verified  bool
}

// TestModelGolden pins every model output of stream at size test to
// testdata/golden.json, which -update rewrites.
func TestModelGolden(t *testing.T) {
	got := map[string]modelFields{}
	for _, d := range [][2]int{{1, 1}, {2, 24}, {4, 12}, {1, 48}, {48, 1}} {
		for _, comp := range []struct {
			name string
			cfg  core.CompilerConfig
		}{{"as-is", core.AsIs()}, {"tuned", core.Tuned()}} {
			res, err := App{}.Run(common.RunConfig{
				Procs: d[0], Threads: d[1], Compiler: comp.cfg, Size: common.SizeTest,
			})
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("%dx%d %s", d[0], d[1], comp.name)] = modelFields{
				Time: res.Time, GFlops: res.GFlops(), Breakdown: res.Breakdown,
				Figure: res.Figure, Kernels: res.Kernels, Comm: res.Comm,
				Check: res.Check, Verified: res.Verified,
			}
		}
	}
	enc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden.json")
	if *update {
		if err := os.WriteFile(golden, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	var want, have map[string]any
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(enc, &have); err != nil {
		t.Fatal(err)
	}
	for key, w := range want {
		if !sameJSON(have[key], w) {
			g, _ := json.MarshalIndent(have[key], "", "  ")
			wb, _ := json.MarshalIndent(w, "", "  ")
			t.Errorf("%s drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", key, golden, g, wb)
		}
	}
	for key := range have {
		if _, ok := want[key]; !ok {
			t.Errorf("%s is missing from %s", key, golden)
		}
	}
}

// sameJSON compares two decoded JSON values: numbers bit for bit on
// exactArch and within 1e-12 relative elsewhere, everything else
// exactly.
func sameJSON(got, want any) bool {
	switch w := want.(type) {
	case float64:
		g, ok := got.(float64)
		if !ok {
			return false
		}
		if exactArch {
			return g == w
		}
		return math.Abs(g-w) <= 1e-12*math.Max(math.Abs(g), math.Abs(w))
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok || len(g) != len(w) {
			return false
		}
		for k, v := range w {
			if !sameJSON(g[k], v) {
				return false
			}
		}
		return true
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return false
		}
		for i := range w {
			if !sameJSON(g[i], w[i]) {
				return false
			}
		}
		return true
	default:
		return got == want
	}
}
