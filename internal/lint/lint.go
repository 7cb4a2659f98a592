// Package lint is fibersim's static-analysis driver: a stdlib-only
// (go/parser, go/ast, go/types) analyzer framework that enforces
// simulator-specific invariants over the module's source, plus the
// shared diagnostic type through which the loopir kernel-IR verifier
// reports, so `fiberlint` covers Go source and kernel descriptors in
// one run.
//
// The paper's findings hinge on derived kernel properties (vectorized
// fraction, dependency-chain penalty, bytes/flop balance) staying
// internally consistent as the codebase grows; these analyzers are the
// enforcement mechanism. The rules:
//
//   - floatcmp:   no raw ==/!= on floating-point expressions outside
//     _test.go files (comparisons against the exact-zero sentinel are
//     allowed: zero is a well-defined "unset/guard" value).
//   - rawkernel:  a core.Kernel composite literal outside
//     internal/loopir must share a function with a Validate() or
//     core.MustKernel call — descriptors may not bypass validation.
//   - magicconst: hardware-scale numbers (bandwidths, frequencies,
//     machine descriptions) may only live in internal/arch, not inline
//     in miniapps or the harness.
//   - errchecklite: no discarded error returns in internal/...; and
//     nowhere — commands included — may an http.Server lifecycle
//     error (ListenAndServe, Serve, Shutdown, TLS variants) be
//     dropped, since it is the only signal a daemon failed to bind
//     or did not drain cleanly.
//   - barepanic:  no bare panic(...) statements in internal/miniapps
//     or internal/harness — model and harness failures travel as
//     errors; Must* helpers are the sanctioned panic wrappers.
//   - nakedretry: no time.Sleep inside for/range loops — a loop that
//     sleeps is a retry/poll loop, and its wait must honour a context
//     (jobs.Sleep or a select on ctx.Done()) so Ctrl-C and daemon
//     drains abort it immediately.
//   - replaysafe: miniapp code (internal/miniapps/<app>, not common)
//     reads neither the virtual clock (Clock() on an mpi.Comm or
//     omp.Team) nor the model axes of a RunConfig (Machine, Alloc,
//     Bind, NodeStride, Compiler): common.LaunchApp replays a
//     recorded launch across model configs, so the numerics may depend
//     only on procs, threads, size and seed.
//
// On top of the per-file rules, a dataflow layer (dataflow.go: a
// package-level call-graph approximation plus value-origin tracking
// across function boundaries) carries three v2 rule families:
//
//   - nondet:     nondeterminism sources reaching output paths —
//     wall clock or global math/rand reached (transitively) from model
//     code, map-iteration order escaping into writers or returned
//     values, goroutine result collection ordered by completion.
//   - concsafety: lock-containing values passed by copy, WaitGroup
//     and Cond misuse, unbounded goroutine spawns in loops, and
//     context-blind channel sends on hot paths.
//   - unitcheck:  dimensional consistency over internal/units' named
//     quantity types — cross-unit arithmetic and comparison (seen
//     even through float64(...) laundering), dimension- or
//     scale-changing conversions, magic unit-less constants.
//
// A diagnostic is suppressed with the directive
//
//	//fiberlint:ignore <rule>[,<rule>...] reason
//
// where <rule> may be "all". The one true placement form: the
// directive covers findings anchored on its own line (trailing
// comment) and on the line directly below (directive alone on the
// line above). Every rule anchors its finding at the first line of
// the offending construct, so both forms work for every rule,
// multi-line expressions included.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, from either a source analyzer (File is a
// real path and Line/Col are set) or the kernel-IR verifier (File is a
// logical locus like "ir:ffb/ebe-matvec" and Line is 0).
type Diagnostic struct {
	// File is the file path or logical locus.
	File string
	// Line and Col locate the finding within File (0 when not a file).
	Line, Col int
	// Rule names the analyzer that produced the finding.
	Rule string
	// Msg explains the finding.
	Msg string
}

// String renders the diagnostic the way compilers do.
func (d Diagnostic) String() string {
	if d.Line > 0 {
		return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Msg)
	}
	return fmt.Sprintf("%s: %s: %s", d.File, d.Rule, d.Msg)
}

// Analyzer is one named source rule. Exactly one of Run and RunAll is
// set: Run inspects packages independently, RunAll sees the whole load
// at once plus the shared dataflow engine (call graph, value origins).
type Analyzer struct {
	// Name is the rule key used in diagnostics and suppressions.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects one type-checked package.
	Run func(p *Package) []Diagnostic
	// RunAll inspects the full load with the dataflow engine.
	RunAll func(pkgs []*Package, eng *Engine) []Diagnostic
}

// DefaultAnalyzers returns the full rule set in reporting order.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		FloatCmp(), RawKernel(), MagicConst(), ErrCheckLite(), BarePanic(), NakedRetry(),
		ReplaySafe(), NonDet(), ConcSafety(), UnitCheck(),
	}
}

// Run applies the analyzers to every package, drops suppressed
// findings, and returns the remainder sorted by position. The dataflow
// engine is built once, lazily, the first time a RunAll analyzer needs
// it.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	sup := suppressions(pkgs)
	var eng *Engine
	var out []Diagnostic
	keep := func(ds []Diagnostic) {
		for _, d := range ds {
			if !sup.covers(d) {
				out = append(out, d)
			}
		}
	}
	for _, a := range analyzers {
		if a.RunAll != nil {
			if eng == nil {
				eng = NewEngine(pkgs)
			}
			keep(a.RunAll(pkgs, eng))
			continue
		}
		for _, p := range pkgs {
			keep(a.Run(p))
		}
	}
	Sort(out)
	return out
}

// Sort orders diagnostics by file, line, column and rule.
func Sort(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// ignorePrefix introduces a suppression comment.
const ignorePrefix = "//fiberlint:ignore"

// fileLine keys a suppression to one line of one file.
type fileLine struct {
	file string
	line int
}

// suppression records which rules are ignored on which lines of which
// files, across the whole load (RunAll analyzers report findings from
// any package in one batch).
type suppression map[string]map[fileLine]bool // rule -> suppressed positions

func (s suppression) covers(d Diagnostic) bool {
	if d.Line == 0 {
		return false
	}
	at := fileLine{file: d.File, line: d.Line}
	for _, rule := range []string{d.Rule, "all"} {
		if lines := s[rule]; lines != nil && lines[at] {
			return true
		}
	}
	return false
}

// suppressions scans every package's comments for ignore directives. A
// directive suppresses the named rules on its own line and on the line
// below, so it works both as a trailing comment and on a line of its
// own above the finding (rules anchor findings at the first line of
// the offending construct, making the two forms equivalent).
func suppressions(pkgs []*Package) suppression {
	s := suppression{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, ignorePrefix) {
						continue
					}
					rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
					rules, _, _ := strings.Cut(rest, " ")
					pos := p.Fset.Position(c.Pos())
					for _, rule := range strings.Split(rules, ",") {
						rule = strings.TrimSpace(rule)
						if rule == "" {
							continue
						}
						if s[rule] == nil {
							s[rule] = map[fileLine]bool{}
						}
						s[rule][fileLine{pos.Filename, pos.Line}] = true
						s[rule][fileLine{pos.Filename, pos.Line + 1}] = true
					}
				}
			}
		}
	}
	return s
}

// diag builds a Diagnostic at a source position.
func (p *Package) diag(pos token.Pos, rule, format string, args ...any) Diagnostic {
	at := p.Fset.Position(pos)
	return Diagnostic{
		File: at.Filename, Line: at.Line, Col: at.Column,
		Rule: rule, Msg: fmt.Sprintf(format, args...),
	}
}

// IsTestFile reports whether f came from a _test.go file.
func (p *Package) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}
