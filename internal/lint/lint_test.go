package lint_test

import (
	"fmt"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"fibersim/internal/lint"
)

// loadModule builds a loader rooted at the real module, so fixture
// imports of fibersim/internal/... resolve against the live sources.
func loadModule(t *testing.T) *lint.Module {
	t.Helper()
	root, err := lint.FindRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	m, err := lint.LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// parseWants collects the `// want <rule>[ <rule>...]` markers from
// every fixture file, keyed by "file.go:line".
func parseWants(t *testing.T, dir string) map[string][]string {
	t.Helper()
	wants := map[string][]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, rest, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			rules := strings.Fields(rest)
			sort.Strings(rules)
			wants[fmt.Sprintf("%s:%d", e.Name(), i+1)] = rules
		}
	}
	return wants
}

// TestAnalyzers runs each analyzer over its fixtures and compares the
// findings line-by-line against the fixtures' want markers. Entries
// with an explicit asPath re-load a bad fixture under an import path
// the rule does not govern and expect silence.
func TestAnalyzers(t *testing.T) {
	m := loadModule(t)
	cases := []struct {
		name         string
		dir          string // under testdata/src
		asPath       string // fake import path; "" derives from dir
		analyzer     *lint.Analyzer
		includeTests bool
		wantNone     bool // ignore markers, expect zero findings
	}{
		{name: "floatcmp_bad", dir: "floatcmp_bad", analyzer: lint.FloatCmp(), includeTests: true},
		{name: "floatcmp_good", dir: "floatcmp_good", analyzer: lint.FloatCmp()},
		{name: "rawkernel_bad", dir: "rawkernel_bad", analyzer: lint.RawKernel()},
		{name: "rawkernel_good", dir: "rawkernel_good", analyzer: lint.RawKernel()},
		{name: "magicconst_bad", dir: "internal/harness/magicconst_bad", analyzer: lint.MagicConst()},
		{name: "magicconst_good", dir: "internal/harness/magicconst_good", analyzer: lint.MagicConst()},
		{name: "errcheck_bad", dir: "errcheck_bad", analyzer: lint.ErrCheckLite()},
		{name: "errcheck_good", dir: "errcheck_good", analyzer: lint.ErrCheckLite()},
		{name: "httpserve_bad", dir: "cmd/httpserve_bad",
			asPath: "fibersim/cmd/httpserve_bad", analyzer: lint.ErrCheckLite()},
		{name: "httpserve_good", dir: "cmd/httpserve_good",
			asPath: "fibersim/cmd/httpserve_good", analyzer: lint.ErrCheckLite()},
		{name: "barepanic_bad", dir: "internal/miniapps/barepanic_bad", analyzer: lint.BarePanic()},
		{name: "barepanic_good", dir: "internal/miniapps/barepanic_good", analyzer: lint.BarePanic()},
		{name: "replaysafe_bad", dir: "internal/miniapps/replaysafe_bad", analyzer: lint.ReplaySafe()},
		{name: "replaysafe_good", dir: "internal/miniapps/replaysafe_good", analyzer: lint.ReplaySafe()},
		{name: "suppress_replaysafe", dir: "internal/miniapps/suppress_replaysafe", analyzer: lint.ReplaySafe()},
		{name: "nakedretry_bad", dir: "nakedretry_bad", analyzer: lint.NakedRetry()},
		{name: "nakedretry_good", dir: "nakedretry_good", analyzer: lint.NakedRetry()},
		{name: "suppress", dir: "suppress", analyzer: lint.FloatCmp()},

		{name: "nondet_bad", dir: "internal/model/nondet_bad", analyzer: lint.NonDet()},
		{name: "nondet_good", dir: "internal/model/nondet_good", analyzer: lint.NonDet()},
		{name: "concsafety_bad", dir: "concsafety_bad", analyzer: lint.ConcSafety()},
		{name: "concsafety_good", dir: "concsafety_good", analyzer: lint.ConcSafety()},
		{name: "unitcheck_bad", dir: "unitcheck_bad", analyzer: lint.UnitCheck()},
		{name: "unitcheck_good", dir: "unitcheck_good", analyzer: lint.UnitCheck()},
		{name: "suppress_nondet", dir: "internal/model/suppress_nondet", analyzer: lint.NonDet()},
		{name: "suppress_concsafety", dir: "suppress_concsafety", analyzer: lint.ConcSafety()},
		{name: "suppress_unitcheck", dir: "suppress_unitcheck", analyzer: lint.UnitCheck()},

		{name: "nondet_exempt_in_jobs", dir: "nondet_service",
			asPath: "fibersim/internal/jobs/fixture", analyzer: lint.NonDet(), wantNone: true},
		{name: "nondet_out_of_model", dir: "nondet_service",
			asPath: "fibersim/cmd/fixture", analyzer: lint.NonDet(), wantNone: true},
		{name: "rawkernel_exempt_in_loopir", dir: "rawkernel_bad",
			asPath: "fibersim/test/internal/loopir", analyzer: lint.RawKernel(), wantNone: true},
		{name: "magicconst_out_of_scope", dir: "internal/harness/magicconst_bad",
			asPath: "fibersim/cmd/fixture", analyzer: lint.MagicConst(), wantNone: true},
		{name: "errcheck_out_of_scope", dir: "errcheck_bad",
			asPath: "fibersim/cmd/fixture", analyzer: lint.ErrCheckLite(), wantNone: true},
		{name: "barepanic_out_of_scope", dir: "internal/miniapps/barepanic_bad",
			asPath: "fibersim/internal/mpi/fixture", analyzer: lint.BarePanic(), wantNone: true},
		{name: "replaysafe_exempt_in_common", dir: "internal/miniapps/replaysafe_bad",
			asPath: "fibersim/internal/miniapps/common", analyzer: lint.ReplaySafe(), wantNone: true},
		{name: "replaysafe_out_of_scope", dir: "internal/miniapps/replaysafe_bad",
			asPath: "fibersim/internal/harness/fixture", analyzer: lint.ReplaySafe(), wantNone: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", filepath.FromSlash(tc.dir))
			asPath := tc.asPath
			if asPath == "" {
				asPath = path.Join("fibersim/internal/lint/testdata/src", tc.dir)
			}
			p, err := m.LoadDir(dir, asPath, tc.includeTests)
			if err != nil {
				t.Fatal(err)
			}
			for _, terr := range p.TypeErrors {
				t.Errorf("fixture does not type-check: %v", terr)
			}
			diags := lint.Run([]*lint.Package{p}, []*lint.Analyzer{tc.analyzer})

			got := map[string][]string{}
			for _, d := range diags {
				key := fmt.Sprintf("%s:%d", filepath.Base(d.File), d.Line)
				got[key] = append(got[key], d.Rule)
			}
			for _, rules := range got {
				sort.Strings(rules)
			}
			wants := parseWants(t, dir)
			if tc.wantNone {
				wants = map[string][]string{}
			}
			for key, rules := range wants {
				if !reflect.DeepEqual(got[key], rules) {
					t.Errorf("%s: want %v, got %v", key, rules, got[key])
				}
			}
			for key, rules := range got {
				if wants[key] == nil {
					t.Errorf("%s: unexpected %v", key, rules)
				}
			}
		})
	}
}

// TestDiagnosticString pins the two rendering shapes: compiler-style
// for source findings, locus-style for kernel-IR findings.
func TestDiagnosticString(t *testing.T) {
	d := lint.Diagnostic{File: "a.go", Line: 3, Col: 7, Rule: "floatcmp", Msg: "m"}
	if got, want := d.String(), "a.go:3:7: floatcmp: m"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
	d = lint.Diagnostic{File: "ir:ffb/ebe-matvec", Rule: "kernelir", Msg: "m"}
	if got, want := d.String(), "ir:ffb/ebe-matvec: kernelir: m"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

// TestDefaultAnalyzers pins the rule-name set the suppression syntax
// and -rules flag refer to.
func TestDefaultAnalyzers(t *testing.T) {
	var names []string
	for _, a := range lint.DefaultAnalyzers() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	want := []string{"barepanic", "concsafety", "errchecklite", "floatcmp", "magicconst",
		"nakedretry", "nondet", "rawkernel", "replaysafe", "unitcheck"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("got %v, want %v", names, want)
	}
}

// TestConcurrentLoads loads one package through two modules at once:
// they share the process's standard-library importer, which must see
// one import at a time.
func TestConcurrentLoads(t *testing.T) {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		m := loadModule(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			pkgs, err := m.Load("./internal/vtime")
			if err == nil && len(pkgs[0].TypeErrors) > 0 {
				err = pkgs[0].TypeErrors[0]
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
