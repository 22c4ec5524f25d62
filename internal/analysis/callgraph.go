package analysis

// Static calls.
//
// The interprocedural analyzer (lockorder) needs to know which functions a
// function calls. That is a syntactic question the AST answers precisely
// for static calls. Dynamic calls — through function values, interface
// methods, or closures passed as arguments — have no declared callee and
// are deliberately not modeled: every analyzer built on this treats an
// unresolved call as "unknown" and stays silent rather than guessing.

import (
	"go/ast"
	"go/types"
)

// A FuncNode is one declared function or method.
type FuncNode struct {
	Decl *ast.FuncDecl
	Obj  *types.Func
	// Calls lists the callee of every static call syntactically inside
	// Decl (including inside nested function literals) that resolved to a
	// named function or method.
	Calls []*types.Func
}

// Funcs returns the function declarations of p, in file order, with their
// static calls.
func Funcs(p *Package) []*FuncNode {
	var fns []*FuncNode
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &FuncNode{Decl: fd, Obj: obj}
			ast.Inspect(fd.Body, func(node ast.Node) bool {
				if call, ok := node.(*ast.CallExpr); ok {
					if callee := StaticCallee(p.Info, call); callee != nil {
						n.Calls = append(n.Calls, callee)
					}
				}
				return true
			})
			fns = append(fns, n)
		}
	}
	return fns
}

// FuncKey names a function or method module-wide: "path.F" for a
// package-level function, "path.(T).M" or "path.(*T).M" for a method. Each
// unit is checked on its own, so the unit that declares a function and a
// unit that calls it hold different *types.Func values; the key is the
// same in both.
func FuncKey(fn *types.Func) string {
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path() + "."
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return path + fn.Name()
	}
	t := sig.Recv().Type()
	star := ""
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
		star = "*"
	}
	if named, isNamed := t.(*types.Named); isNamed {
		return path + "(" + star + named.Obj().Name() + ")." + fn.Name()
	}
	return path + fn.Name()
}

// StaticCallee resolves a call expression to the named function or method it
// statically invokes, or nil for dynamic calls, conversions and builtins.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
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
