package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json compare needs.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// readRecords returns the untraced run records in a JSONL file, by
// workload in file order; other lines (the result lines, notes) are
// skipped.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r record
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Schema != recordSchema || r.Trace != 0 {
			continue
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, sc.Err()
}

// quartiles matches Python's statistics.quantiles(v, n=4), whose
// default method is "exclusive".
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	var q [3]float64
	switch len(s) {
	case 0:
		return q
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	n, m := 4, len(s)+1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q
}

// verdict is the outcome for one (workload, metric).
type verdict struct {
	Workload, Metric, Unit string
	A, B                   [3]float64 // quartiles of the parent and the change
	Pairs                  int
	Won                    float64 // share of pairs the change read better, ties for neither
	Change                 float64 // relative change of the median, positive = worse
	Verdict                string
}

// judge applies the benchmark's acceptance rule. The change improves a
// metric when it wins at least nine tenths of the runs paired in order
// and its median differs from the parent's by more than the parent's
// interquartile range. It regresses when its median is worse by more
// than the bound. Otherwise a metric whose parent spread exceeds the
// bound is unresolved, unless every run of the change reads better
// than every run of the parent, and ok when the spread is within it.
func judge(m specMetric, a, b []float64) verdict {
	sign := 1.0 // +1: lower is better
	if m.Better == "higher" {
		sign = -1
	}
	v := verdict{Metric: m.Name, Unit: m.Unit, A: quartiles(a), B: quartiles(b)}
	v.Pairs = len(a)
	if len(b) < v.Pairs {
		v.Pairs = len(b)
	}
	wins := 0
	for i := 0; i < v.Pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			wins++
		}
	}
	if v.Pairs > 0 {
		v.Won = float64(wins) / float64(v.Pairs)
	}
	medA, medB := v.A[1], v.B[1]
	if medA != 0 {
		v.Change = sign * (medB - medA) / math.Abs(medA)
	}
	spread := v.A[2] - v.A[0]
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case v.Pairs > 0 && v.Won >= 0.9 && sign*(medB-medA) < 0 && math.Abs(medB-medA) > spread:
		v.Verdict = "improve"
	case v.Change > m.Bound:
		v.Verdict = "regress"
	case medA != 0 && spread/math.Abs(medA) > m.Bound && !allBetter:
		v.Verdict = "unresolved"
	default:
		v.Verdict = "ok"
	}
	return v
}

// compareRuns judges every end-to-end metric of every workload present
// in both sets, one row per (workload, metric).
func compareRuns(s spec, parent, change map[string][]record) []verdict {
	var out []verdict
	for _, w := range s.Workloads {
		ra, rb := parent[w.Name], change[w.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range s.EndToEnd {
			values := func(rs []record) []float64 {
				var v []float64
				for _, r := range rs {
					if x, ok := r.Metrics[m.Name]; ok {
						v = append(v, x.Value)
					}
				}
				return v
			}
			a, b := values(ra), values(rb)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := judge(m, a, b)
			v.Workload = w.Name
			out = append(out, v)
		}
	}
	return out
}

// compareMain implements `compare PARENT.jsonl CHANGE.jsonl`: it exits
// 1 when any metric regresses on any workload.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare [-spec BENCHMARK.json] PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	s, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	parent, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	change, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	verdicts := compareRuns(s, parent, change)
	if len(verdicts) == 0 {
		fmt.Fprintln(stderr, "compare: no workload has runs on both sides")
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent q1/med/q3\tchange q1/med/q3\tchange\tpairs won\tverdict")
	regressed := false
	for _, v := range verdicts {
		q := func(x [3]float64) string {
			return strings.Join([]string{fmtG(x[0]), fmtG(x[1]), fmtG(x[2])}, " / ")
		}
		fmt.Fprintf(tw, "%s\t%s [%s]\t%s\t%s\t%+.1f%%\t%.0f%% of %d\t%s\n", v.Workload, v.Metric, v.Unit,
			q(v.A), q(v.B), 100*v.Change, 100*v.Won, v.Pairs, v.Verdict)
		regressed = regressed || v.Verdict == "regress"
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	if regressed {
		return 1
	}
	return 0
}

func fmtG(x float64) string { return fmt.Sprintf("%.4g", x) }
