package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// replayScope is where the rule applies: the miniapp packages, whose
// launches common.LaunchApp records once per functional input and
// replays for every model config. internal/miniapps/common, which does
// the replaying, is exempt.
const (
	replayScope  = "internal/miniapps/"
	replayExempt = "internal/miniapps/common"
)

// modelAxes are the RunConfig fields a replay changes without
// re-executing the numerics.
var modelAxes = map[string]bool{
	"Machine": true, "Alloc": true, "Bind": true, "NodeStride": true, "Compiler": true,
}

// ReplaySafe returns the replaysafe analyzer: miniapp code must not
// read the virtual clock (Clock() on an mpi.Comm or omp.Team) or the
// model axes of a common.RunConfig (Machine, Alloc, Bind, NodeStride,
// Compiler). An app run is keyed by its functional inputs (procs,
// threads, size, seed) and replayed under other model configs, so
// numerics that branch on a clock reading or a model axis would replay
// the wrong program. Timing goes through Env spans instead. Test files
// are exempt.
func ReplaySafe() *Analyzer {
	return &Analyzer{
		Name: "replaysafe",
		Doc:  "flags miniapp reads of the virtual clock or of RunConfig model axes, which a replay re-times without re-executing",
		Run:  runReplaySafe,
	}
}

func runReplaySafe(p *Package) []Diagnostic {
	if !strings.Contains(p.Path, replayScope) || strings.HasSuffix(p.Path, replayExempt) {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		if p.IsTestFile(f) {
			continue
		}
		// Assignment targets are writes; a config an app builds for
		// a nested launch may set the axes.
		written := map[ast.Expr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					written[lhs] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || written[sel] {
				return true
			}
			recv := p.Info.TypeOf(sel.X)
			switch {
			case sel.Sel.Name == "Clock" && (isNamed(recv, "internal/mpi", "Comm") || isNamed(recv, "internal/omp", "Team")):
				out = append(out, p.diag(sel.Pos(), "replaysafe",
					"miniapp reads the virtual clock: a replay re-times the run without executing it, so time phases with Env.BeginSpan/EndSpan"))
			case modelAxes[sel.Sel.Name] && isNamed(recv, replayExempt, "RunConfig"):
				out = append(out, p.diag(sel.Pos(), "replaysafe",
					"miniapp reads RunConfig.%s, a model axis: launches are replayed across model axes, so numerics must depend only on procs, threads, size and seed",
					sel.Sel.Name))
			}
			return true
		})
	}
	return out
}

// isNamed reports whether t, or what it points to, is the named type
// name declared in a package whose path ends in pkgSuffix.
func isNamed(t types.Type, pkgSuffix, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), pkgSuffix)
}
