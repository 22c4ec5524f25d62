package analysis

// Package-local call graph.
//
// The interprocedural analyzer (lockorder) needs to know which functions a
// function calls. Within a package that is a syntactic question the AST
// answers precisely for static calls; across packages the callee is only a
// *types.Func, and its behavior arrives as a fact (see facts.go). Dynamic
// calls — through function values, interface methods, or closures passed as
// arguments — have no static callee and are deliberately not modeled: every
// analyzer built on this graph treats an unresolved call as "unknown" and
// stays silent rather than guessing.

import (
	"go/ast"
	"go/types"
)

// A CallGraph indexes the function declarations of one package and the
// static calls between them.
type CallGraph struct {
	// Funcs lists the package's function declarations in file order.
	Funcs []*FuncNode
	// ByObj maps a declared function's object to its node.
	ByObj map[*types.Func]*FuncNode
}

// A FuncNode is one declared function or method.
type FuncNode struct {
	Decl *ast.FuncDecl
	Obj  *types.Func
	// Calls lists every static call syntactically inside Decl (including
	// inside nested function literals) whose callee resolved to a named
	// function or method.
	Calls []CallSite
}

// A CallSite is one resolved static call.
type CallSite struct {
	Call   *ast.CallExpr
	Callee *types.Func
	// Local is the callee's node when it is declared in this package.
	Local *FuncNode
}

// BuildCallGraph constructs the call graph of the package under analysis.
func BuildCallGraph(pass *Pass) *CallGraph {
	g := &CallGraph{ByObj: map[*types.Func]*FuncNode{}}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &FuncNode{Decl: fd, Obj: obj}
			g.Funcs = append(g.Funcs, n)
			g.ByObj[obj] = n
		}
	}
	for _, n := range g.Funcs {
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := StaticCallee(pass.TypesInfo, call)
			if callee == nil {
				return true
			}
			n.Calls = append(n.Calls, CallSite{Call: call, Callee: callee, Local: g.ByObj[callee]})
			return true
		})
	}
	return g
}

// StaticCallee resolves a call expression to the named function or method it
// statically invokes, or nil for dynamic calls, conversions and builtins.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// Unparen strips any number of enclosing parentheses.
func Unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
