package common_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"fibersim/internal/core"
	"fibersim/internal/miniapps/common"
	"fibersim/internal/obs"
)

// exactArch reports whether the golden can demand equal bits. On amd64
// Go fuses a multiply-add only for an explicit math.FMA; arm64, ppc64,
// s390x and riscv64 may fuse x*y+z, so there the model's sums may
// round differently and the golden allows a relative 1e-12.
var exactArch = runtime.GOARCH == "amd64"

// TestModelGolden pins every model output of the suite to
// testdata/model_golden.json, which -update rewrites: each app at size
// test, at 1x48, 4x12 and 48x1, as-is and tuned. An entry is the run's
// whole manifest (time, gflops, check, verified, breakdown, per-kernel
// attribution, comm and omp profile), or the error of a decomposition
// the app rejects. Each decomposition executes once; its tuned run
// replays the recording.
func TestModelGolden(t *testing.T) {
	start := time.Now()
	defer func() { t.Logf("model golden ran in %v", time.Since(start).Round(time.Millisecond)) }()
	suite := []string{"ccsqcd", "ffb", "ffvc", "modylas", "mvmc", "ngsa", "nicam", "ntchem", "stream"}
	compilers := []struct {
		name string
		cfg  core.CompilerConfig
	}{{"as-is", core.AsIs()}, {"tuned", core.Tuned()}}
	common.ResetRecordings()
	got := map[string]any{}
	for _, name := range suite {
		app := common.MustLookup(name)
		for _, d := range [][2]int{{1, 48}, {4, 12}, {48, 1}} {
			for _, comp := range compilers {
				cfg := common.RunConfig{
					Procs: d[0], Threads: d[1], Compiler: comp.cfg, Size: common.SizeTest,
					Recorder: obs.NewRecorder(),
				}
				key := fmt.Sprintf("%s %dx%d %s", name, d[0], d[1], comp.name)
				res, err := app.Run(cfg)
				if err != nil {
					got[key] = map[string]string{"error": err.Error()}
					continue
				}
				got[key] = common.BuildManifest(res, cfg.Recorder)
			}
		}
	}
	enc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "model_golden.json")
	if common.UpdateGolden() {
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
		if path := driftPath(have[key], w, ""); path != "" {
			g, _ := json.MarshalIndent(have[key], "", "  ")
			t.Errorf("%s drifted from %s at %s; got:\n%s", key, golden, path, g)
		}
	}
	for key := range have {
		if _, ok := want[key]; !ok {
			t.Errorf("%s is missing from %s", key, golden)
		}
	}
}

// driftPath compares two decoded JSON values, numbers bit for bit on
// exactArch and within 1e-12 relative elsewhere and everything else
// exactly. It returns "" when they agree, or else the path of the first
// difference it finds below at.
func driftPath(got, want any, at string) string {
	switch w := want.(type) {
	case float64:
		g, ok := got.(float64)
		if ok && (g == w || !exactArch && math.Abs(g-w) <= 1e-12*math.Max(math.Abs(g), math.Abs(w))) {
			return ""
		}
	case map[string]any:
		g, ok := got.(map[string]any)
		if ok && len(g) == len(w) {
			for k, v := range w {
				if p := driftPath(g[k], v, at+"."+k); p != "" {
					return p
				}
			}
			return ""
		}
	case []any:
		g, ok := got.([]any)
		if ok && len(g) == len(w) {
			for i := range w {
				if p := driftPath(g[i], w[i], fmt.Sprintf("%s[%d]", at, i)); p != "" {
					return p
				}
			}
			return ""
		}
	default:
		if got == want {
			return ""
		}
	}
	if at == "" {
		return "the top level"
	}
	return at
}
