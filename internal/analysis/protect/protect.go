// Package protect checks the kernel's pinning discipline.
//
// A BDD kernel collects only at safe points (Kernel.SafePoint, Kernel.GC),
// and there frees every node that is not pinned with Protect. A pin has a
// pairing contract Go's type system cannot express: every k.Protect(f) must
// be balanced by a k.Unprotect(f), unless ownership of the pin is transferred
// to a longer-lived structure (an index store, a snapshot), which must be
// stated in a comment.
//
// protect checks it with an escape heuristic per function body: a Protect
// whose argument neither gets an in-function Unprotect nor visibly escapes
// (returned, stored into a field, passed to a non-kernel call) is flagged
// unless an "ownership:" comment documents the transfer.
package protect

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the protect analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "protect",
	Doc:  "checks that every Kernel.Protect has a matching Unprotect or a documented ownership transfer",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, p := range pass.Pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch n := n.(type) {
				case *ast.FuncDecl:
					body = n.Body
				case *ast.FuncLit:
					body = n.Body
				}
				if body != nil {
					(&funcCheck{pass: pass, info: p.Info, body: body, file: f}).checkProtect()
				}
				return true // also descend into nested function literals
			})
		}
	}
	return nil
}

type funcCheck struct {
	pass *analysis.Pass
	info *types.Info
	body *ast.BlockStmt
	file *ast.File
}

// checkProtect applies the Protect/Unprotect balance heuristic to one
// function body. A pin is fine when the same function Unprotects the same
// value, when the pinned value visibly escapes the function (returned,
// stored into a field, slice, map or package variable, passed to a
// non-kernel call — some longer-lived owner is then responsible for the
// balancing Unprotect), or when an "ownership:" comment on the Protect line
// documents a deliberate transfer.
func (fc *funcCheck) checkProtect() {
	info := fc.info

	// Collect Unprotect targets (by object for identifiers, by expression
	// text otherwise) and objects that escape the function.
	unprotObjs := map[types.Object]bool{}
	unprotExprs := map[string]bool{}
	escaped := map[types.Object]bool{}

	inspectShallow(fc.body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			_, name, ok := analysis.KernelMethod(info, n)
			if ok && name == "Unprotect" && len(n.Args) == 1 {
				if id, isID := n.Args[0].(*ast.Ident); isID {
					if obj := info.ObjectOf(id); obj != nil {
						unprotObjs[obj] = true
					}
				}
				unprotExprs[exprText(n.Args[0])] = true
			}
			if ok {
				// Kernel operations read their operands; they do not
				// retain them.
				return
			}
			// Arguments to non-kernel calls may be retained by the callee.
			for _, a := range n.Args {
				markIdents(info, a, escaped)
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				markIdents(info, r, escaped)
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				markIdents(info, e, escaped)
			}
		case *ast.AssignStmt:
			// Storing into anything other than a plain local identifier
			// (field, index, dereference) hands the value to a longer-lived
			// structure.
			for i, l := range n.Lhs {
				if _, isID := l.(*ast.Ident); !isID && i < len(n.Rhs) {
					markIdents(info, n.Rhs[i], escaped)
				}
			}
			if len(n.Lhs) != len(n.Rhs) && len(n.Rhs) == 1 {
				for _, l := range n.Lhs {
					if _, isID := l.(*ast.Ident); !isID {
						markIdents(info, n.Rhs[0], escaped)
					}
				}
			}
		case *ast.SendStmt:
			markIdents(info, n.Value, escaped)
		}
	})

	inspectShallow(fc.body, func(n ast.Node) {
		// Only statement-form pins are checked: a Protect whose result is
		// consumed (assigned, returned) forwards the pinned value, and the
		// forwarding context is covered by the escape rules above.
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return
		}
		_, name, ok := analysis.KernelMethod(info, call)
		if !ok || name != "Protect" || len(call.Args) != 1 {
			return
		}
		arg := call.Args[0]
		if unprotExprs[exprText(arg)] {
			return
		}
		id, isID := arg.(*ast.Ident)
		if !isID {
			// Pinning a field or element: the owning structure holds the
			// value, and its teardown path owns the balancing Unprotect.
			return
		}
		obj := info.ObjectOf(id)
		if obj == nil || unprotObjs[obj] || escaped[obj] {
			return
		}
		if fc.hasOwnershipComment(call) {
			return
		}
		fc.pass.Reportf(call.Pos(),
			"Protect(%s) has no matching Unprotect in this function and the pinned value does not escape; "+
				"unpin it, or document the transfer with an 'ownership:' comment", exprText(arg))
	})
}

// hasOwnershipComment reports whether the line of the call or the line above
// carries a comment containing "ownership:".
func (fc *funcCheck) hasOwnershipComment(n ast.Node) bool {
	line := fc.pass.Fset.Position(n.Pos()).Line
	for _, cg := range fc.file.Comments {
		for _, c := range cg.List {
			cl := fc.pass.Fset.Position(c.Pos()).Line
			if (cl == line || cl == line-1) && strings.Contains(c.Text, "ownership:") {
				return true
			}
		}
	}
	return false
}

// markIdents records every identifier appearing in e.
func markIdents(info *types.Info, e ast.Expr, set map[types.Object]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil {
				set[obj] = true
			}
		}
		return true
	})
}

// exprText renders a small expression back to source-ish text for messages
// and matching.
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprText(e.Fun) + "(…)"
	case *ast.IndexExpr:
		return exprText(e.X) + "[…]"
	case *ast.ParenExpr:
		return "(" + exprText(e.X) + ")"
	case *ast.StarExpr:
		return "*" + exprText(e.X)
	default:
		return "…"
	}
}

// inspectShallow visits nodes of body without descending into nested
// function literals.
func inspectShallow(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}
