// Command fiberbench runs one experiment of the paper and prints the
// regenerated table or figure, or — with -app — runs a single
// instrumented configuration and emits its observability artefacts
// (run manifest, bottleneck report, metrics exposition, timeline).
//
// Usage:
//
//	fiberbench -exp F1                 # decomposition sweep, small size
//	fiberbench -exp F4 -size test      # compiler tuning, test size
//	fiberbench -exp F5 -apps ccsqcd,mvmc
//	fiberbench -exp T3 -csv            # machine-readable output
//
//	fiberbench -app stream -size test -manifest run.json -report
//	fiberbench -app ccsqcd -procs 4 -threads 12 -trace run.trace.json
//	fiberbench -app mvmc -metrics -        # Prometheus text to stdout
//	fiberbench -app stream -selfprofile self.json -cpuprofile cpu.pprof
//
// Experiment ids map to the paper artefacts; run `fiberinfo
// -experiments` for the index. Single-run mode exits non-zero when the
// app's verification fails, so CI can gate on it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"fibersim/internal/arch"
	"fibersim/internal/fault"
	"fibersim/internal/harness"
	_ "fibersim/internal/miniapps/all"
	"fibersim/internal/miniapps/common"
	"fibersim/internal/obs"
	"fibersim/internal/trace"
)

func main() {
	exp := flag.String("exp", "", "experiment id (T1..T3, F1..F6); empty runs everything")
	size := flag.String("size", "small", "data set: test, small, medium")
	apps := flag.String("apps", "", "comma-separated miniapp subset (default: full suite)")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	jsonOut := flag.Bool("json", false, "emit JSON instead of an aligned table")
	chart := flag.String("chart", "", "additionally draw an ASCII bar chart of this column")

	// Single-run mode.
	appName := flag.String("app", "", "run ONE miniapp instead of an experiment")
	machine := flag.String("machine", "a64fx", "single run: target machine")
	procs := flag.Int("procs", 0, "single run: MPI ranks (0 = machine default decomposition)")
	threads := flag.Int("threads", 0, "single run: OpenMP threads per rank")
	stride := flag.Int("stride", 0, "single run: node-level thread stride")
	compiler := flag.String("compiler", "as-is", "single run: compiler config (as-is, nosimd, simd, sched, tuned)")
	manifest := flag.String("manifest", "", "single run: write the run manifest JSON to this file (- for stdout)")
	report := flag.Bool("report", false, "single run: print the bottleneck report")
	topK := flag.Int("topk", 10, "single run: kernels shown in the report")
	metrics := flag.String("metrics", "", "single run: write Prometheus text exposition to this file (- for stdout)")
	traceFile := flag.String("trace", "", "single run: write a chrome://tracing timeline to this file")
	faultSpec := flag.String("fault", "", `single run: fault schedule, e.g. "seed=7,straggler=0:1.5,noise=200us:20us,crash=1:2ms" (see internal/fault)`)
	selfProfile := flag.String("selfprofile", "", "single run: write a self-profile JSON (the simulator's own wall/alloc cost) to this file (- for stdout)")
	cpuProfile := flag.String("cpuprofile", "", "single run: additionally capture a pprof CPU profile to this file")
	heapProfile := flag.String("heapprofile", "", "single run: additionally capture a pprof heap profile to this file")
	flag.Parse()

	sz, err := common.ParseSize(*size)
	if err != nil {
		fatal(err)
	}

	if *appName != "" {
		runSingle(singleOpts{
			app: *appName, machine: *machine, size: sz,
			procs: *procs, threads: *threads, stride: *stride,
			compiler: *compiler, manifest: *manifest, report: *report,
			topK: *topK, metrics: *metrics, traceFile: *traceFile,
			fault: *faultSpec, selfProfile: *selfProfile,
			cpuProfile: *cpuProfile, heapProfile: *heapProfile,
		})
		return
	}
	if *faultSpec != "" {
		fatal(fmt.Errorf("-fault applies to single-run mode only (use with -app; sweeps take it via fibersweep)"))
	}
	if *selfProfile != "" || *cpuProfile != "" || *heapProfile != "" {
		fatal(fmt.Errorf("-selfprofile/-cpuprofile/-heapprofile apply to single-run mode only (use with -app)"))
	}

	opt := harness.Options{Size: sz}
	if *apps != "" {
		opt.Apps = strings.Split(*apps, ",")
	}

	var list []harness.Experiment
	if *exp == "" {
		list = harness.Experiments()
	} else {
		e, err := harness.LookupExperiment(*exp)
		if err != nil {
			fatal(err)
		}
		list = []harness.Experiment{e}
	}

	for _, e := range list {
		t, err := e.Run(opt)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		switch {
		case *csv:
			if err := t.CSV(os.Stdout); err != nil {
				fatal(err)
			}
		case *jsonOut:
			if err := t.JSON(os.Stdout); err != nil {
				fatal(err)
			}
		default:
			if err := t.Render(os.Stdout); err != nil {
				fatal(err)
			}
		}
		if *chart != "" {
			if err := t.RenderBars(os.Stdout, *chart); err != nil {
				fatal(err)
			}
		}
	}
}

type singleOpts struct {
	app, machine       string
	size               common.Size
	procs, threads     int
	stride             int
	compiler           string
	manifest           string
	report             bool
	topK               int
	metrics, traceFile string
	fault              string
	selfProfile        string
	cpuProfile         string
	heapProfile        string
}

// runSingle executes one fully instrumented configuration and emits
// the requested observability artefacts.
func runSingle(o singleOpts) {
	app, err := common.Lookup(o.app)
	if err != nil {
		fatal(err)
	}
	m, err := arch.Lookup(o.machine)
	if err != nil {
		fatal(err)
	}
	cc, err := harness.ParseCompiler(o.compiler)
	if err != nil {
		fatal(err)
	}
	sched, err := fault.ParseSchedule(o.fault)
	if err != nil {
		fatal(err)
	}
	if o.procs == 0 && o.threads == 0 {
		// Default decomposition: one rank per NUMA domain.
		o.procs = len(m.Domains)
		o.threads = m.TotalCores() / o.procs
	}

	rec := obs.NewRecorder()
	rc := common.RunConfig{
		Machine: m, Procs: o.procs, Threads: o.threads,
		NodeStride: o.stride, Compiler: cc, Size: o.size,
		Recorder: rec, Fault: sched,
	}
	if o.traceFile != "" {
		rc.TraceCapacity = 1 << 16
	}
	rec.SetMeta(app.Name(), rc.Normalized().String())

	var cost *obs.CostRecorder
	if o.selfProfile != "" {
		cost = obs.NewCostRecorder(time.Now)
	}
	stopCPU := func() {}
	if o.cpuProfile != "" {
		stop, err := obs.StartCPUProfile(o.cpuProfile)
		if err != nil {
			fatal(err)
		}
		stopCPU = stop
	}
	cost.Start()
	res, err := app.Run(rc)
	cost.Finish()
	stopCPU()
	if err != nil {
		fatal(err)
	}
	doc := common.BuildManifest(res, rec)

	if o.selfProfile != "" {
		prof := cost.Profile(app.Name())
		if o.cpuProfile != "" {
			prof.CPUProfile = o.cpuProfile
		}
		if o.heapProfile != "" {
			prof.HeapProfile = o.heapProfile
		}
		if err := writeTo(o.selfProfile, prof.Encode); err != nil {
			fatal(err)
		}
		if o.selfProfile != "-" {
			if err := prof.WriteReport(os.Stderr); err != nil {
				fatal(err)
			}
		}
	}
	if o.heapProfile != "" {
		if err := obs.WriteHeapProfile(o.heapProfile); err != nil {
			fatal(err)
		}
	}

	if o.manifest != "" {
		if err := writeTo(o.manifest, doc.Encode); err != nil {
			fatal(err)
		}
	}
	if o.metrics != "" {
		if err := writeTo(o.metrics, rec.Registry().WritePrometheus); err != nil {
			fatal(err)
		}
	}
	if o.traceFile != "" {
		if res.Traces == nil {
			fatal(fmt.Errorf("app %s produced no trace", app.Name()))
		}
		if err := writeTo(o.traceFile, func(w io.Writer) error {
			return trace.WriteChrome(w, res.Traces...)
		}); err != nil {
			fatal(err)
		}
	}
	if o.report {
		if err := obs.WriteReport(os.Stdout, doc, o.topK); err != nil {
			fatal(err)
		}
	} else if o.manifest != "-" && o.metrics != "-" {
		fmt.Printf("%s %s: time=%.6gs gflops=%.1f verified=%v\n",
			app.Name(), rc.String(), res.Time, res.GFlops(), res.Verified)
	}
	if !res.Verified {
		fatal(fmt.Errorf("%s verification FAILED (check=%g)", app.Name(), res.Check))
	}
}

// writeTo writes via emit to path, with "-" meaning stdout.
func writeTo(path string, emit func(io.Writer) error) error {
	if path == "-" {
		return emit(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fiberbench:", err)
	os.Exit(1)
}
