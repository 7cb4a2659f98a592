package stream

import (
	"math"
	"runtime"
	"testing"

	"fibersim/internal/miniapps/common"
)

// sweepStatic runs s over n elements split into threads static chunks,
// as omp deals them, leaving out chunk skip (-1 sweeps them all).
func sweepStatic(s *sweep, n, threads, skip int) {
	base, rem := n/threads, n%threads
	lo := 0
	for th := 0; th < threads; th++ {
		hi := lo + base
		if th < rem {
			hi++
		}
		if th != skip {
			s.chunk(th, lo, hi)
		}
		lo = hi
	}
}

// TestSweepFailsVerification checks that every element is verified:
// a skipped chunk fails on a fresh set and on a reused set that holds
// the previous rank's correct values, and a one-ulp or NaN error in
// any element of any array fails.
func TestSweepFailsVerification(t *testing.T) {
	const n, threads = 5*block + 77, 3 // the last block of each chunk is short
	newSweep := func(set *arrays) *sweep { return &sweep{set: set, parts: make([]partial, threads)} }
	fresh := func() *arrays { return (&freeList{n: n}).get() }

	full := newSweep(fresh())
	sweepStatic(full, n, threads, -1)
	if v := full.verdict(n); v != 0 {
		t.Fatalf("full sweep: check %g, want 0", v)
	}
	for _, c := range []struct {
		name string
		set  *arrays
	}{{"fresh set", fresh()}, {"reused set", full.set}} {
		s := newSweep(c.set)
		sweepStatic(s, n, threads, 1)
		if v := s.verdict(n); !math.IsInf(v, 1) {
			t.Errorf("%s, one chunk skipped: check %g, want +Inf", c.name, v)
		}
	}

	a, b, c := full.set.a[:block], full.set.b[:block], full.set.c[:block]
	for k, x := range [][]float64{a, b, c} {
		for i := range x {
			good := x[i]
			for _, bad := range []float64{math.Nextafter(good, math.Inf(1)), math.NaN()} {
				x[i] = bad
				s := newSweep(nil)
				s.parts[0] = partial{swept: n, worst: deviation(a, b, c)}
				// A NaN check would vanish in the max-reduction over ranks.
				if v := s.verdict(n); !(v > 1e-8) {
					t.Fatalf("array %d element %d = %g (want %g): check %g passes", k, i, bad, good, v)
				}
			}
			x[i] = good
		}
	}
}

// TestLaunchReusesArrays checks that an executed launch allocates at
// most one array set per run slot, not one per rank.
func TestLaunchReusesArrays(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	n := elements(common.SizeTest)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// A seed no other test uses, so the launch executes.
	res, err := App{}.Run(common.RunConfig{Procs: 48, Threads: 1, Size: common.SizeTest, Seed: 48})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if !res.Verified {
		t.Fatalf("check %g", res.Check)
	}
	sets := float64(after.TotalAlloc-before.TotalAlloc) / float64(3*8*n)
	t.Logf("allocated %.2f array sets' worth", sets)
	if sets > 4 {
		t.Errorf("48 ranks allocated %.1f array sets' worth, want at most 2 sets plus overhead", sets)
	}
}
