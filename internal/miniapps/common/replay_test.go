package common_test

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fibersim/internal/affinity"
	"fibersim/internal/arch"
	"fibersim/internal/core"
	"fibersim/internal/fault"
	_ "fibersim/internal/miniapps/all"
	"fibersim/internal/miniapps/common"
	"fibersim/internal/obs"
	"fibersim/internal/omp"
	"fibersim/internal/trace"
)

// observed is one run with its recorder.
type observed struct {
	res common.Result
	rec *obs.Recorder
}

func runObserved(t *testing.T, app common.App, cfg common.RunConfig) (observed, error) {
	t.Helper()
	cfg.Recorder = obs.NewRecorder()
	cfg.TraceCapacity = 256 // small enough that long runs drop events
	res, err := app.Run(cfg)
	return observed{res, cfg.Recorder}, err
}

// comparable returns every field of r in comparable form: the config
// without its recorder and the traces without flow ids, which a
// world-wide counter assigns in host order.
func comparable(r common.Result) map[string]any {
	r.Config.Recorder = nil
	var traces [][]trace.Event
	for _, l := range r.Traces {
		evs := l.Events()
		for i := range evs {
			evs[i].Flow = 0
		}
		traces = append(traces, evs)
	}
	r.Traces = nil
	out := map[string]any{"Traces": traces}
	v := reflect.ValueOf(r)
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; name != "Traces" {
			out[name] = v.Field(i).Interface()
		}
	}
	return out
}

func manifestBytes(t *testing.T, o observed) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := common.BuildManifest(o.res, o.rec).Encode(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkSame requires two runs of the same config, such as a replay and
// a fresh execution, to agree field by field and manifest byte for
// byte. label names the pair.
func checkSame(t *testing.T, label string, a, b observed) {
	t.Helper()
	got, want := comparable(a.res), comparable(b.res)
	for name, w := range want {
		if !reflect.DeepEqual(got[name], w) {
			t.Errorf("%s: Result.%s: %+v vs %+v", label, name, got[name], w)
		}
	}
	if g, w := manifestBytes(t, a), manifestBytes(t, b); !bytes.Equal(g, w) {
		t.Errorf("%s: manifests differ:\n%s\nvs\n%s", label, g, w)
	}
}

// TestReplayMatchesExecution is the replay oracle: every app, at every
// decomposition it accepts at size test, is recorded once and replayed
// under four other model configs, and each replay must equal a fresh
// execution of its config with the cache cleared.
func TestReplayMatchesExecution(t *testing.T) {
	start := time.Now()
	defer func() { t.Logf("replay oracle ran in %v", time.Since(start).Round(time.Millisecond)) }()
	variants := []struct {
		name string
		set  func(*common.RunConfig)
	}{
		{"tuned", func(c *common.RunConfig) { c.Compiler = core.Tuned() }},
		{"nodestride12", func(c *common.RunConfig) { c.NodeStride = 12 }},
		{"cyclic", func(c *common.RunConfig) { c.Alloc = affinity.AllocCyclic }},
		{"skylake", func(c *common.RunConfig) { c.Machine = arch.MustLookup("skylake") }},
	}
	// The suite as miniapps/all registers it (common.Names also lists
	// the fakes this package's own tests register).
	suite := []string{"ccsqcd", "ffb", "ffvc", "modylas", "mvmc", "ngsa", "nicam", "ntchem", "stream"}
	for _, name := range suite {
		app := common.MustLookup(name)
		for _, d := range [][2]int{{1, 48}, {4, 12}, {48, 1}} {
			base := common.RunConfig{Procs: d[0], Threads: d[1], Size: common.SizeTest, Seed: 7}
			common.ResetRecordings()
			if _, err := runObserved(t, app, base); err != nil {
				t.Logf("%s %dx%d: not run (%v)", name, d[0], d[1], err)
				continue
			}
			if common.RecordingCount() != 1 {
				t.Fatalf("%s %dx%d: the launch was not recorded", name, d[0], d[1])
			}
			replays := make([]observed, len(variants))
			for i, v := range variants {
				cfg := base
				v.set(&cfg)
				var err error
				if replays[i], err = runObserved(t, app, cfg); err != nil {
					t.Fatalf("%s %dx%d %s replay: %v", name, d[0], d[1], v.name, err)
				}
			}
			for i, v := range variants {
				cfg := base
				v.set(&cfg)
				common.ResetRecordings()
				fresh, err := runObserved(t, app, cfg)
				if err != nil {
					t.Fatalf("%s %dx%d %s: %v", name, d[0], d[1], v.name, err)
				}
				checkSame(t, name+" "+cfg.String()+" "+v.name+", replay vs fresh", replays[i], fresh)
			}
		}
	}
}

// TestOutputsIndependentOfHostParallelism executes every app at size
// test, at 4x12 and at 48x1 where the app accepts it, once under
// GOMAXPROCS 1 and once under 4, with the recording cache cleared
// before each. The model reads virtual clocks only, so both runs must
// agree as a replay must agree with execution. With one run slot and
// one omp worker, every MPI handoff parks and wakes a rank.
func TestOutputsIndependentOfHostParallelism(t *testing.T) {
	suite := []string{"ccsqcd", "ffb", "ffvc", "modylas", "mvmc", "ngsa", "nicam", "ntchem", "stream"}
	for _, name := range suite {
		app := common.MustLookup(name)
		for _, d := range [][2]int{{4, 12}, {48, 1}} {
			cfg := common.RunConfig{Procs: d[0], Threads: d[1], Size: common.SizeTest, Seed: 7}
			var runs [2]observed
			var errs [2]error
			for i, procs := range []int{1, 4} {
				common.ResetRecordings()
				func() {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					runs[i], errs[i] = runObserved(t, app, cfg)
				}()
			}
			if errs[0] != nil || errs[1] != nil {
				if d[0] == 48 && errs[0] != nil && errs[1] != nil {
					t.Logf("%s 48x1: not run (%v)", name, errs[0])
					continue
				}
				t.Fatalf("%s %dx%d: GOMAXPROCS 1: %v; GOMAXPROCS 4: %v", name, d[0], d[1], errs[0], errs[1])
			}
			checkSame(t, name+" "+cfg.String()+", GOMAXPROCS 1 vs 4", runs[0], runs[1])
		}
	}
}

// cacheKernel is a small memory-bound kernel for the cache tests.
func cacheKernel() core.Kernel {
	return core.MustKernel(core.Kernel{
		Name: "cache-test", FlopsPerIter: 2, LoadBytesPerIter: 16, StoreBytesPerIter: 8,
		VectorizableFrac: 1, AutoVecFrac: 1, WorkingSetBytes: 1 << 20,
	})
}

// countingLaunch launches a tiny app under name and counts how often
// its body executes; extra runs inside the body after the charge.
func countingLaunch(t *testing.T, name string, cfg common.RunConfig, runs *atomic.Int64, extra func(*common.Env) error) {
	t.Helper()
	var out struct{ v float64 }
	_, err := common.LaunchApp(name, cfg, &out, func(env *common.Env) error {
		runs.Add(1)
		if err := env.Charge(cacheKernel(), 1e4); err != nil {
			return err
		}
		if extra != nil {
			if err := extra(env); err != nil {
				return err
			}
		}
		if env.Rank() == 0 {
			out.v = 1
		}
		return env.Comm.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.v != 1 {
		t.Fatalf("%s: outputs not restored", name)
	}
}

func TestFaultedLaunchBypassesCache(t *testing.T) {
	common.ResetRecordings()
	var runs atomic.Int64
	cfg := common.RunConfig{Procs: 2, Threads: 2}
	faulted := cfg
	faulted.Fault = &fault.Schedule{Stragglers: []fault.Straggler{{Rank: 0, Start: 0, End: 1, Factor: 2}}}
	countingLaunch(t, "faulted", faulted, &runs, nil)
	if n := common.RecordingCount(); n != 0 {
		t.Errorf("a faulted launch left %d recordings, want 0", n)
	}
	countingLaunch(t, "faulted", cfg, &runs, nil) // records
	countingLaunch(t, "faulted", faulted, &runs, nil)
	if got := runs.Load(); got != 3*2 {
		t.Errorf("bodies ran %d times, want 6: a faulted launch must execute", got)
	}
}

func TestUnreplayableLaunchIsNotCached(t *testing.T) {
	for _, tc := range []struct {
		name  string
		extra func(*common.Env) error
	}{
		{"cost-fn", func(env *common.Env) error {
			env.Team.ParallelFor(omp.Schedule{}, 4, nil, func(int) float64 { return 1e-9 })
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			common.ResetRecordings()
			var runs atomic.Int64
			cfg := common.RunConfig{Procs: 2, Threads: 2}
			countingLaunch(t, tc.name, cfg, &runs, tc.extra)
			countingLaunch(t, tc.name, cfg, &runs, tc.extra)
			if n := common.RecordingCount(); n != 0 {
				t.Errorf("%d recordings kept, want 0", n)
			}
			if got := runs.Load(); got != 2*2 {
				t.Errorf("bodies ran %d times, want 4", got)
			}
		})
	}
}

func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	common.ResetRecordings()
	var runs atomic.Int64
	launch := func(seed int64) int64 {
		before := runs.Load()
		countingLaunch(t, "evict", common.RunConfig{Procs: 1, Threads: 1, Seed: seed}, &runs, nil)
		return runs.Load() - before
	}
	for seed := int64(1); seed <= common.RecordingCapacity; seed++ {
		launch(seed)
	}
	if n := launch(1); n != 0 { // a replay, which makes seed 1 recent
		t.Fatalf("seed 1 executed again before the cache was full")
	}
	launch(common.RecordingCapacity + 1) // evicts seed 2
	if n := common.RecordingCount(); n != common.RecordingCapacity {
		t.Errorf("cache holds %d recordings, want its capacity %d", n, common.RecordingCapacity)
	}
	if n := launch(1); n != 0 {
		t.Error("the recently used seed 1 was evicted")
	}
	if n := launch(2); n != 1 {
		t.Error("the least recently used seed 2 was not evicted")
	}
}

// TestConcurrentLaunches runs two functional inputs under two compiler
// configs from several goroutines at once, as fiberd workers do: misses
// may execute more than once, and every launch must verify and time
// exactly like the other launches of its config.
func TestConcurrentLaunches(t *testing.T) {
	common.ResetRecordings()
	app := common.MustLookup("mvmc")
	const n = 16
	results := make([]common.Result, n)
	errs := make([]error, n)
	cfgOf := func(i int) common.RunConfig {
		cfg := common.RunConfig{Procs: 2, Threads: 2, Size: common.SizeTest, Seed: int64(1 + i%2)}
		if i%4 >= 2 {
			cfg.Compiler = core.Tuned()
		}
		return cfg
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = app.Run(cfgOf(i))
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if errs[i] != nil {
			t.Fatalf("launch %d: %v", i, errs[i])
		}
		if !r.Verified {
			t.Errorf("launch %d did not verify", i)
		}
		if first := results[i%4]; r.Time != first.Time || r.Flops != first.Flops || r.Check != first.Check {
			t.Errorf("launch %d (%v): time %g flops %g check %g, launch %d: %g %g %g",
				i, cfgOf(i), r.Time, r.Flops, r.Check, i%4, first.Time, first.Flops, first.Check)
		}
	}
}
