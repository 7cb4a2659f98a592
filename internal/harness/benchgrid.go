package harness

import (
	"fmt"
	"strings"
	"time"

	"fibersim/internal/arch"
	"fibersim/internal/miniapps/common"
	"fibersim/internal/obs"
	"fibersim/internal/perfdb"
)

// BenchConfig is one cell of the continuous-benchmarking grid.
type BenchConfig struct {
	App      string
	Machine  string
	Procs    int
	Threads  int
	Compiler string
}

// benchDecomps is the decomposition subset the trajectory tracks: the
// pure-MPI and pure-OpenMP extremes plus the paper's sweet spot (one
// rank per CMG). The full six-point grid lives in the F1 experiment;
// the gate only needs the shapes regressions show up in.
func benchDecomps() [][2]int {
	return [][2]int{{1, 48}, {4, 12}, {48, 1}}
}

// benchCompilers are the compiler configs the trajectory tracks: the
// endpoints of the paper's tuning story.
func benchCompilers() []string {
	return []string{"as-is", "tuned"}
}

// BenchGrid returns the standard benchmark grid: every suite app plus
// the STREAM proxy, on the A64FX, across the canonical decompositions
// and the as-is/tuned compiler endpoints. Order is deterministic.
func BenchGrid() []BenchConfig {
	apps := append(append([]string{}, FiberApps()...), "stream")
	var out []BenchConfig
	for _, app := range apps {
		for _, d := range benchDecomps() {
			for _, cc := range benchCompilers() {
				out = append(out, BenchConfig{
					App: app, Machine: "a64fx",
					Procs: d[0], Threads: d[1], Compiler: cc,
				})
			}
		}
	}
	return out
}

// FilterBenchGrid restricts a grid to the named apps (comma-separated;
// empty keeps everything). Unknown names error rather than silently
// shrinking the gate.
func FilterBenchGrid(grid []BenchConfig, apps string) ([]BenchConfig, error) {
	if strings.TrimSpace(apps) == "" {
		return grid, nil
	}
	want := map[string]bool{}
	for _, a := range strings.Split(apps, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if _, err := common.Lookup(a); err != nil {
			return nil, err
		}
		want[a] = true
	}
	var out []BenchConfig
	for _, c := range grid {
		if want[c.App] {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("harness: app filter %q matches nothing in the grid", apps)
	}
	return out, nil
}

// RunBench executes one grid cell under a recorder and folds the
// result into a trajectory record: virtual runtime, ECM attribution
// split summed over kernels, and total communication volume. A
// non-nil clock additionally measures the simulator's own cost — the
// run's elapsed seconds and heap allocations, read by an
// obs.CostRecorder around app.Run — into the record's
// self-observability fields; nil skips the measurement (old-style
// records).
func RunBench(c BenchConfig, size common.Size, rev string, clock func() time.Time) (perfdb.Record, error) {
	app, err := common.Lookup(c.App)
	if err != nil {
		return perfdb.Record{}, err
	}
	m, err := arch.Lookup(c.Machine)
	if err != nil {
		return perfdb.Record{}, err
	}
	cc, err := ParseCompiler(c.Compiler)
	if err != nil {
		return perfdb.Record{}, err
	}
	rec := obs.NewRecorder()
	rc := common.RunConfig{
		Machine: m, Procs: c.Procs, Threads: c.Threads,
		Compiler: cc, Size: size, Recorder: rec,
	}
	rec.SetMeta(app.Name(), rc.Normalized().String())
	cost := obs.NewCostRecorder(clock)
	cost.Start()
	res, err := app.Run(rc)
	cost.Finish()
	if err != nil {
		return perfdb.Record{}, fmt.Errorf("harness: bench %s %s %dx%d %s: %w",
			c.App, c.Machine, c.Procs, c.Threads, c.Compiler, err)
	}

	attr := obs.Attribution{}
	for _, k := range rec.Profile().Kernels {
		attr = attr.Add(k.Attribution)
	}
	split := map[string]float64{}
	for _, r := range obs.Resources() {
		if v := attr.Get(r); v > 0 {
			split[r.String()] = v
		}
	}
	self := cost.Profile(c.App)
	comm := res.Comm.SendBytes
	for _, b := range res.Comm.CollectiveBytes {
		comm += b
	}
	return perfdb.Record{
		Schema:  perfdb.RecordSchema,
		App:     c.App,
		Machine: c.Machine,
		Procs:   c.Procs, Threads: c.Threads,
		Compiler:     cc.String(),
		Size:         size.String(),
		Rev:          rev,
		TimeSeconds:  res.Time,
		GFlops:       res.GFlops(),
		Verified:     res.Verified,
		Attribution:  split,
		CommBytes:    comm,
		WallSeconds:  self.ElapsedSeconds,
		AllocsPerRun: float64(self.Allocs),
	}, nil
}

// RunBenchGrid executes every cell of the grid, invoking progress (if
// non-nil) after each record. The first failing cell aborts the grid:
// a partially benchmarked revision is worse than a loudly failing one.
// clock propagates to RunBench (nil skips self-cost measurement).
func RunBenchGrid(grid []BenchConfig, size common.Size, rev string, clock func() time.Time, progress func(perfdb.Record)) ([]perfdb.Record, error) {
	out := make([]perfdb.Record, 0, len(grid))
	for _, c := range grid {
		r, err := RunBench(c, size, rev, clock)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		if progress != nil {
			progress(r)
		}
	}
	return out, nil
}
