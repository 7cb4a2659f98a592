// Command fiberinfo lists the machine catalogue, the miniapp suite and
// the available experiments, and validates run manifests.
//
// Usage:
//
//	fiberinfo -machines                   # Table 1
//	fiberinfo -apps                       # Table 2 (kernel descriptors)
//	fiberinfo -experiments                # the table/figure index
//	fiberinfo -validate-manifest run.json  # schema + invariant check
//	fiberinfo -validate-trace trace.json   # service-trace schema check
//	fiberinfo -validate-selfprofile p.json # self-profile schema check
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fibersim/internal/harness"
	"fibersim/internal/miniapps/common"
	"fibersim/internal/obs"
	"fibersim/internal/power"
)

func main() {
	machines := flag.Bool("machines", false, "print the processor catalogue (Table 1)")
	apps := flag.Bool("apps", false, "print the miniapp suite and kernels (Table 2)")
	exps := flag.Bool("experiments", false, "list the reproducible tables and figures")
	pw := flag.Bool("power", false, "print the power profiles and A64FX operating modes")
	size := flag.String("size", "small", "data set for kernel descriptors: test, small, medium")
	validate := flag.String("validate-manifest", "", "parse and validate a run manifest, exiting non-zero on failure")
	validateTrace := flag.String("validate-trace", "", "parse and validate a service trace export, exiting non-zero on failure")
	validateSelf := flag.String("validate-selfprofile", "", "parse and validate a self-profile artifact, exiting non-zero on failure")
	flag.Parse()

	if *validate != "" {
		os.Exit(runValidate(*validate, os.Stdout, os.Stderr))
	}
	if *validateTrace != "" {
		os.Exit(runValidateTrace(*validateTrace, os.Stdout, os.Stderr))
	}
	if *validateSelf != "" {
		os.Exit(runValidateSelfProfile(*validateSelf, os.Stdout, os.Stderr))
	}

	if !*machines && !*apps && !*exps && !*pw {
		*machines, *apps, *exps, *pw = true, true, true, true
	}
	sz, err := common.ParseSize(*size)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opt := harness.Options{Size: sz}

	if *machines {
		t, err := harness.TableMachines(opt)
		if err != nil {
			fatal(err)
		}
		if err := t.Render(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if *apps {
		t, err := harness.TableMiniapps(opt)
		if err != nil {
			fatal(err)
		}
		if err := t.Render(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if *pw {
		fmt.Println("== power profiles ==")
		for _, name := range power.Names() {
			p := power.MustLookup(name)
			fmt.Printf("  %-12s idle %3.0f W  +compute %3.0f W  +memory %3.0f W  (max %3.0f W)\n",
				name, p.IdleWatts, p.ComputeWatts, p.MemoryWatts, p.MaxWatts())
		}
	}
	if *exps {
		fmt.Println("== experiments ==")
		for _, e := range harness.Experiments() {
			fmt.Printf("  %-3s  %-55s %s\n", e.ID, e.Title, e.Description)
		}
	}
}

// runValidate parses and validates one run manifest, including the
// fault block's internal consistency (finite non-negative seconds,
// noise seconds backed by noise events, no empty blocks). It returns
// the process exit code: 0 for a valid verified manifest, 1 otherwise.
func runValidate(path string, stdout, stderr io.Writer) int {
	m, err := obs.ReadManifestFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "fiberinfo:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s: valid manifest: %s on %s (%dx%d), verified=%v, %d kernels\n",
		path, m.App, m.Config.Machine, m.Config.Procs, m.Config.Threads,
		m.Verified, len(m.Profile.Kernels))
	if m.Fault != nil {
		fmt.Fprintf(stdout, "%s: fault block: straggler %gs, %d noise events (%gs), %d degraded sends, %d crashes\n",
			path, m.Fault.StragglerSeconds, m.Fault.NoiseEvents, m.Fault.NoiseSeconds,
			m.Fault.DegradedSends, m.Fault.Crashes)
	}
	if !m.Verified {
		fmt.Fprintf(stderr, "fiberinfo: %s: run did NOT verify (check=%g)\n", path, m.Check)
		return 1
	}
	return 0
}

// runValidateTrace checks a fibersim/service-trace/v1 document: the
// schema, the span tree invariants (one root, resolvable parents), and
// that the trace is actually finished (no open spans — an export with
// open spans means the producer serialized a live trace).
func runValidateTrace(path string, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, "fiberinfo:", err)
		return 1
	}
	defer f.Close()
	tr, err := obs.ParseTrace(f)
	if err != nil {
		fmt.Fprintln(stderr, "fiberinfo:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s: valid trace %s (%q): %d spans, %.6fs\n",
		path, tr.ID, tr.Name, len(tr.Spans), tr.DurationSeconds)
	if tr.OpenSpans > 0 {
		fmt.Fprintf(stderr, "fiberinfo: %s: trace finalized with %d spans still open\n", path, tr.OpenSpans)
		return 1
	}
	return 0
}

// runValidateSelfProfile checks a fibersim/self-profile/v2 document:
// schema identity, no unknown fields, and finite non-negative
// measurements — ReadSelfProfileFile enforces all of it, so a parse is
// a validation.
func runValidateSelfProfile(path string, stdout, stderr io.Writer) int {
	p, err := obs.ReadSelfProfileFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "fiberinfo:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s: valid self-profile %q: elapsed %.6fs, %d allocs\n",
		path, p.Label, p.ElapsedSeconds, p.Allocs)
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fiberinfo:", err)
	os.Exit(1)
}
