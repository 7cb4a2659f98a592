// Command fiberload drives a running fiberd with concurrent job
// submissions and reports the service's latency behavior: percentiles
// of submit-to-terminal wall time, error and shed (429) rates, and —
// via the service traces fiberd records — the split of each job's life
// between queue wait, execution, retry backoff and journal writes.
//
//	fiberload -addr http://127.0.0.1:8080 -c 8 -n 200 -mix stream:3,mvmc:1
//
// The -max-p99 flag turns the run into a pass/fail gate for CI: the
// exit code is non-zero when the measured job-latency p99 exceeds the
// bound, when nothing was accepted, or when any request errored and
// -max-errors is 0.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "fiberd base URL")
	workers := flag.Int("c", 4, "concurrent submitters")
	total := flag.Int("n", 100, "total submissions across all workers (0: unbounded, needs -duration)")
	duration := flag.Duration("duration", 0, "stop after this long (0: run until -n submissions)")
	mixFlag := flag.String("mix", "stream", "spec mix: comma-separated app[:weight] cells")
	size := flag.String("size", "test", "data set for every spec in the mix")
	poll := flag.Duration("poll", 10*time.Millisecond, "job status poll interval")
	seed := flag.Int64("seed", 1, "RNG seed for the spec mix draw")
	traceSample := flag.Int("trace-sample", 50, "job traces to fetch for the latency split (0: skip)")
	jsonOut := flag.Bool("json", false, "emit the report as fibersim/load-report/v1 JSON")
	maxP99 := flag.Duration("max-p99", 0, "fail (exit 1) when job-latency p99 exceeds this bound (0: off)")
	maxErrors := flag.Int("max-errors", 0, "tolerated request errors before the run fails")
	flag.Parse()

	if *total <= 0 && *duration <= 0 {
		fmt.Fprintln(os.Stderr, "fiberload: either -n or -duration must bound the run")
		os.Exit(2)
	}
	mix, err := parseMix(*mixFlag, *size)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	l := &loader{
		base:    *addr,
		client:  &http.Client{Timeout: 30 * time.Second},
		mix:     mix,
		workers: *workers,
		total:   *total,
		dur:     *duration,
		poll:    *poll,
		seed:    *seed,
	}
	before, haveBefore := l.fetchRuntime(ctx)
	l.run(ctx)
	var split TraceSplit
	if *traceSample > 0 {
		split = l.sampleTraces(ctx, *traceSample)
	}
	rep := l.report(split)
	if haveBefore {
		if after, ok := l.fetchRuntime(ctx); ok {
			rep.Runtime = diffRuntime(before, after)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "fiberload:", err)
			os.Exit(1)
		}
	} else if err := rep.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fiberload:", err)
		os.Exit(1)
	}
	os.Exit(verdict(rep, *maxP99, *maxErrors, os.Stderr))
}

// verdict applies the CI gates to the report and returns the exit
// code, explaining every failure on stderr.
func verdict(rep Report, maxP99 time.Duration, maxErrors int, stderr *os.File) int {
	code := 0
	if rep.Accepted == 0 {
		fmt.Fprintln(stderr, "fiberload: FAIL: no submission was accepted")
		code = 1
	}
	if rep.Errors > maxErrors {
		fmt.Fprintf(stderr, "fiberload: FAIL: %d request errors (tolerated %d)\n", rep.Errors, maxErrors)
		code = 1
	}
	if maxP99 > 0 && rep.Latency.P99 > maxP99.Seconds() {
		fmt.Fprintf(stderr, "fiberload: FAIL: job latency p99 %.4fs exceeds bound %s\n",
			rep.Latency.P99, maxP99)
		code = 1
	}
	return code
}
