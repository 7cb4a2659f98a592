// Command benchmark measures fibersim's own host cost: the wall time,
// CPU time, allocations and memory one workload takes, with the model's
// outputs checked against committed goldens. A traced run adds the
// per-layer numbers: CPU time charged to each module from a CPU profile,
// exact work counts, and the cost per operation of each layer.
//
//	go run . --workload stream-flat --seed 20210901 --seconds 20 --trace 0
//	go run . compare parent.jsonl change.jsonl
//
// Run it from the repository root (benchmark/run.sh builds and runs it
// there). The last line of standard output is the result: correct,
// attempted, failed and metrics. The line before it is the full record
// (schema fibersim/benchmark/v1) that compare reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"fibersim/benchmark/start"
	"fibersim/internal/miniapps/common"
)

// recordSchema identifies the full record line.
const recordSchema = "fibersim/benchmark/v1"

// setupReps is how many times a run repeats its set-up; setup_s takes
// the median.
const setupReps = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit; BENCHMARK.json declares the
// same names.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"allocs", "count"},
	{"alloc_mib", "MiB"},
	{"peak_rss_mib", "MiB"},
}

// record is the full result of one run.
type record struct {
	Schema    string            `json:"schema"`
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Passes    int               `json:"passes"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Claim stays null: the benchmark measures and makes no claim.
	Claim *string `json:"claim"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	initSeconds := time.Since(start.Time).Seconds()
	runtime.GOMAXPROCS(2)
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run: stream-flat, suite-flat, suite-hybrid or scorecard")
	seed := fs.Int64("seed", 20210901, "seed of the model inputs (RunConfig.Seed)")
	seconds := fs.Float64("seconds", 20, "measure passes for about this long; at least one pass runs")
	trace := fs.Int("trace", 0, "1 runs one profiled pass plus the per-operation loops and prints the per-layer metrics")
	update := fs.Bool("update-golden", false, "write the first pass's outputs as this seed's golden (for changes that alter the model)")
	_ = fs.Parse(os.Args[1:]) // ExitOnError
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: --trace takes 0 or 1")
		os.Exit(2)
	}
	opts := options{
		size:      common.SizeSmall,
		goldenDir: "benchmark/golden",
		tmpRoot:   ".bench_build",
		opScale:   1,
	}
	if _, err := os.Stat(opts.goldenDir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: run from the repository root:", err)
		os.Exit(2)
	}
	rec, err := run(*name, *seed, *seconds, *trace == 1, *update, initSeconds, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, rec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run sets up the workload setupReps times, then measures it. initSeconds
// is the time from process start to main, which set-up cannot repeat.
//
// The metrics come from the first pass, the one a single invocation of
// the simulator corresponds to. Later passes, run while --seconds
// lasts, only check that the outputs repeat: a process-wide cache such
// as memoization would make them cheaper, and would give the grid
// workloads repeated cells that they are chosen not to have.
func run(name string, seed int64, seconds float64, traced, update bool, initSeconds float64, o options) (record, error) {
	var p *plan
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		q, err := prepare(name, seed, o)
		if err == nil {
			err = q.warmUp()
		}
		setups = append(setups, time.Since(t0).Seconds())
		p.close()
		p = q
		if err != nil {
			p.close()
			return record{}, err
		}
	}
	defer p.close()

	rec := record{Schema: recordSchema, Workload: name, Seed: seed, Metrics: map[string]metric{}}
	var passes []pass
	if traced {
		rec.Trace = 1
		ps, layers, err := tracedPass(p, o.opScale)
		if err != nil {
			return record{}, err
		}
		passes = append(passes, ps)
		rec.Metrics = layers
	} else {
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		for {
			t0 := time.Now()
			passes = append(passes, p.run())
			// Stop when another pass like this one would overrun.
			if time.Now().Add(time.Since(t0)).After(deadline) {
				break
			}
		}
		first := passes[0]
		values := map[string]float64{
			"setup_s":      initSeconds + quartiles(setups)[1],
			"wall_s":       first.wall,
			"cpu_s":        first.cpu,
			"allocs":       float64(first.mallocs),
			"alloc_mib":    float64(first.allocBytes) / (1 << 20),
			"peak_rss_mib": peakRSSMiB(),
		}
		for _, d := range endToEnd {
			rec.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
		}
	}
	rec.Passes = len(passes)

	var ref []op
	if p.golden != nil {
		ref = p.golden.Ops
	}
	for i, ps := range passes {
		if update && i == 0 {
			if err := writeGolden(o.goldenDir, golden{Workload: name, Seed: seed, Ops: ps.ops}); err != nil {
				return record{}, err
			}
			ref = ps.ops
		}
		attempted, failures := check(ps, ref)
		rec.Attempted += attempted
		rec.Failed += len(failures)
		if len(failures) > 0 {
			fmt.Fprintf(os.Stderr, "benchmark: pass %d of %s seed %d failed %d of %d:\n  %s\n",
				i+1, name, seed, len(failures), attempted, strings.Join(failures, "\n  "))
		}
		if ref == nil {
			ref = ps.ops
		}
	}
	return rec, nil
}

// emit prints the record line and then the result line.
func emit(w io.Writer, rec record) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(rec); err != nil {
		return err
	}
	return enc.Encode(result{
		Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics,
	})
}
