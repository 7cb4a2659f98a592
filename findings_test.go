package fibersim_test

// The four findings stated in the paper's abstract are checked on the
// small data sets by the S1 scorecard (internal/harness
// TestScorecardAllPassAtSmall). Finding 1 is also checked here, because
// this test makes the one assertion S1's verdict does not: the
// cache-resident scalar app's stride effect stays small. -short skips it.

import (
	"strconv"
	"strings"
	"testing"

	"fibersim/internal/harness"
	"fibersim/internal/miniapps/common"
)

func smallOpts(apps ...string) harness.Options {
	return harness.Options{Size: common.SizeSmall, Apps: apps}
}

func parseSuffix(t *testing.T, s, suffix string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, suffix), 64)
	if err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
	return v
}

// Finding 1: "shorter OpenMP thread strides perform better in most
// mini applications."
func TestFindingThreadStrides(t *testing.T) {
	if testing.Short() {
		t.Skip("small-size acceptance test")
	}
	tab, err := harness.FigThreadStride(smallOpts("ccsqcd", "ffvc", "mvmc"))
	if err != nil {
		t.Fatal(err)
	}
	affected := 0
	for _, app := range []string{"ccsqcd", "ffvc"} {
		ratio, err := tab.Cell(app, "worst/best")
		if err != nil {
			t.Fatal(err)
		}
		if parseSuffix(t, ratio, "x") > 1.05 {
			affected++
		}
	}
	if affected < 2 {
		t.Errorf("memory-bound apps should show a stride effect; table: %+v", tab.Rows)
	}
	// "most but not all": the cache-resident scalar app barely moves.
	ratio, err := tab.Cell("mvmc", "worst/best")
	if err != nil {
		t.Fatal(err)
	}
	if parseSuffix(t, ratio, "x") > 1.10 {
		t.Errorf("mvmc stride effect %s unexpectedly large", ratio)
	}
}
