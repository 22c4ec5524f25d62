// Package sentinelcmp flags direct comparisons against the repository's
// sentinel errors.
//
// Sentinels like bdd.ErrBudget, bdd.ErrCorrupt, logic.ErrNoIndex,
// replica.ErrClosed and service.ErrBusy routinely arrive wrapped: budget
// aborts cross package boundaries as fmt.Errorf("%w", ...) chains (the
// service layer wraps ErrBusy with the context error, the evaluator wraps
// ErrNoIndex with the predicate name). A direct == / != / switch-case
// comparison silently misses the wrapped form, so every test must go through
// errors.Is. PR 1 fixed exactly this bug in internal/experiments/threshold.go;
// this analyzer keeps it fixed.
package sentinelcmp

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the sentinelcmp analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "sentinelcmp",
	Doc: "flags ==, != and switch-case comparisons against wrapped sentinel errors; " +
		"module sentinels (bdd.ErrBudget, logic.ErrNoIndex, ...) arrive wrapped, so use errors.Is",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, p := range pass.Pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					if n.Op != token.EQL && n.Op != token.NEQ {
						return true
					}
					for _, side := range [...]ast.Expr{n.X, n.Y} {
						if name, ok := sentinelName(pass, p.Info, side); ok {
							pass.Reportf(n.Pos(), "direct %s comparison against sentinel %s; it may arrive wrapped, use errors.Is", n.Op, name)
							break
						}
					}
				case *ast.SwitchStmt:
					// switch err { case bdd.ErrBudget: ... } compares the tag
					// with == against every case expression.
					if n.Tag == nil {
						return true
					}
					if tv, ok := p.Info.Types[n.Tag]; !ok || !analysis.IsErrorType(tv.Type) {
						return true
					}
					for _, s := range n.Body.List {
						cc, ok := s.(*ast.CaseClause)
						if !ok {
							continue
						}
						for _, e := range cc.List {
							if name, ok := sentinelName(pass, p.Info, e); ok {
								pass.Reportf(e.Pos(), "switch case compares against sentinel %s with ==; it may arrive wrapped, use errors.Is", name)
							}
						}
					}
				}
				return true
			})
		}
	}
	return nil
}

// sentinelName reports whether e denotes a module sentinel error variable,
// and its display name.
func sentinelName(pass *analysis.Pass, info *types.Info, e ast.Expr) (string, bool) {
	obj := analysis.ObjectOf(info, e)
	if obj == nil || !analysis.SentinelError(pass, obj) {
		return "", false
	}
	return obj.Pkg().Name() + "." + obj.Name(), true
}
