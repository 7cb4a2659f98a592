// Command fiberperf is the continuous-benchmarking front end: it
// records benchmark trajectories, gates the simulator's host cost
// against the stored baseline with robust statistics, and diffs run
// manifests.
//
//	fiberperf record -trajectory BENCH_fibersim.json -size small
//	fiberperf check  -trajectory BENCH_fibersim.json -size small
//	fiberperf diff   old.json new.json
//
// record runs the standard grid (every suite app plus the STREAM
// proxy, three decompositions, as-is and tuned compilers) and appends
// one JSONL record per cell. check reruns the same grid at HEAD and
// compares each cell's host wall time and allocation count against the
// median/MAD of its baseline window, exiting non-zero when one
// regresses or a run fails verification. It does not gate model
// outputs: tier-1's exact model golden (TestModelGolden in
// internal/miniapps/common) does.
//
// At -size test a few apps cannot decompose 48 ranks (their smallest
// grids have only 16 layers); restrict -apps or use small, where the
// full grid runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"fibersim/internal/harness"
	"fibersim/internal/miniapps/common"
	"fibersim/internal/obs"
	"fibersim/internal/perfdb"
	"fibersim/internal/vtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, `usage: fiberperf <record|check|diff> [flags]

  record  run the standard benchmark grid and append to the trajectory
  check   rerun the grid and gate its host cost against the stored baseline
  diff    structural diff of two run manifests

Run 'fiberperf <subcommand> -h' for flags.`)
	return 2
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr)
	}
	switch args[0] {
	case "record":
		return runRecord(args[1:], stdout, stderr)
	case "check":
		return runCheck(args[1:], stdout, stderr)
	case "diff":
		return runDiff(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "fiberperf: unknown subcommand %q\n", args[0])
		return usage(stderr)
	}
}

// gridFlags are the knobs record and check share: which cells to run
// and which trajectory file to run them against.
type gridFlags struct {
	trajectory string
	size       string
	apps       string
	rev        string
}

func (g *gridFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&g.trajectory, "trajectory", perfdb.DefaultPath, "trajectory file (JSONL)")
	fs.StringVar(&g.size, "size", "small", "problem size: test, small, medium")
	fs.StringVar(&g.apps, "apps", "", "comma-separated app filter (default: full grid)")
	fs.StringVar(&g.rev, "rev", "", "revision tag for new records (default: git rev-parse)")
}

// resolve parses the size, applies the app filter, and fills in the
// revision from git when none was given.
func (g *gridFlags) resolve() ([]harness.BenchConfig, common.Size, error) {
	size, err := common.ParseSize(g.size)
	if err != nil {
		return nil, 0, err
	}
	grid, err := harness.FilterBenchGrid(harness.BenchGrid(), g.apps)
	if err != nil {
		return nil, 0, err
	}
	if g.rev == "" {
		g.rev = gitRev()
	}
	return grid, size, nil
}

// gitRev asks git for the short HEAD hash; a trajectory without
// revisions is still useful, so failure degrades to "unknown".
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func runRecord(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fiberperf record", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var g gridFlags
	g.register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	grid, size, err := g.resolve()
	if err != nil {
		fmt.Fprintf(stderr, "fiberperf record: %v\n", err)
		return 2
	}
	traj, err := perfdb.Load(g.trajectory)
	if err != nil {
		fmt.Fprintf(stderr, "fiberperf record: %v\n", err)
		return 1
	}
	recs, err := harness.RunBenchGrid(grid, size, g.rev, time.Now, func(r perfdb.Record) {
		fmt.Fprintf(stdout, "recorded %-40s %10s  %8.1f Gflop/s  wall %8.3fs\n",
			r.Key(), vtime.Format(r.TimeSeconds), r.GFlops, r.WallSeconds)
	})
	if err != nil {
		fmt.Fprintf(stderr, "fiberperf record: %v\n", err)
		return 1
	}
	if err := traj.Append(recs...); err != nil {
		fmt.Fprintf(stderr, "fiberperf record: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "appended %d records (rev %s) to %s; %d keys total\n",
		len(recs), g.rev, g.trajectory, len(traj.Keys()))
	return 0
}

func runCheck(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fiberperf check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var g gridFlags
	g.register(fs)
	th := perfdb.DefaultThresholds()
	fs.IntVar(&th.Window, "window", th.Window, "baseline window (most recent N records per key)")
	fs.Float64Var(&th.Z, "z", th.Z, "robust z-score threshold")
	wallMinRel := fs.Float64("wall-min-rel", 1.5, "relative floor for the wall-clock self-cost gate (0 disables)")
	allocMinRel := fs.Float64("alloc-min-rel", 0.25, "relative floor for the allocation self-cost gate (0 disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	grid, size, err := g.resolve()
	if err != nil {
		fmt.Fprintf(stderr, "fiberperf check: %v\n", err)
		return 2
	}
	traj, err := perfdb.Load(g.trajectory)
	if err != nil {
		fmt.Fprintf(stderr, "fiberperf check: %v\n", err)
		return 1
	}
	fresh, err := harness.RunBenchGrid(grid, size, g.rev, time.Now, nil)
	if err != nil {
		fmt.Fprintf(stderr, "fiberperf check: %v\n", err)
		return 1
	}
	var unverified []string
	for _, r := range fresh {
		if !r.Verified {
			unverified = append(unverified, r.Key())
		}
	}
	// Self-cost gates: wall clock and allocations measure the simulator
	// process, not the model, so they run on real-machine noise. The
	// floors are deliberately loose (a 1.5 relative floor tolerates a 6x
	// wall shift at z=4) and the gates are regress-only: a faster
	// simulator never fails the build.
	selfGates := []struct {
		name   string
		metric func(perfdb.Record) float64
		minRel float64
	}{
		{"wall", func(r perfdb.Record) float64 { return r.WallSeconds }, *wallMinRel},
		{"allocs", func(r perfdb.Record) float64 { return r.AllocsPerRun }, *allocMinRel},
	}
	var bad []perfdb.Finding
	samples, noBaseline := 0, 0
	for _, gate := range selfGates {
		if gate.minRel <= 0 {
			continue
		}
		gth := th
		gth.MinRel = gate.minRel
		gf := traj.CheckMetric(fresh, gate.name, gate.metric, gth)
		samples += len(gf)
		for _, f := range gf {
			if f.Verdict == perfdb.VerdictNoBaseline {
				noBaseline++
			}
		}
		for _, f := range perfdb.Regressions(gf) {
			fmt.Fprintf(stdout, "%-12s %-40s %12g vs median %12g  z=%+.2f  ratio %.3fx  (n=%d)\n",
				f.Verdict, f.Key, f.Value, f.Median, f.Z, f.Ratio, f.Baseline)
			bad = append(bad, f)
		}
	}
	for _, u := range unverified {
		fmt.Fprintf(stdout, "UNVERIFIED   %s\n", u)
	}
	if len(bad) > 0 || len(unverified) > 0 {
		fmt.Fprintf(stderr, "fiberperf check: %d gate failure(s), %d unverified run(s)\n",
			len(bad), len(unverified))
		return 1
	}
	fmt.Fprintf(stdout, "gate clean: %d cells checked against %s (window %d, z %g); %d of %d host-cost samples no-baseline\n",
		len(fresh), g.trajectory, th.Window, th.Z, noBaseline, samples)
	return 0
}

func runDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fiberperf diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit the machine-readable diff document")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: fiberperf diff [-json] old-manifest.json new-manifest.json")
		return 2
	}
	oldM, err := obs.ReadManifestFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "fiberperf diff: %v\n", err)
		return 1
	}
	newM, err := obs.ReadManifestFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "fiberperf diff: %v\n", err)
		return 1
	}
	d := obs.DiffManifests(oldM, newM)
	if *asJSON {
		err = d.Encode(stdout)
	} else {
		err = d.WriteReport(stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "fiberperf diff: %v\n", err)
		return 1
	}
	return 0
}
