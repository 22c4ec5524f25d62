package analysis

// Package-local call graph.
//
// The interprocedural analyzers (kernelowner and lockorder) need to know
// which functions a function calls. Within a package that is a syntactic
// question the AST answers precisely for static calls; across packages the
// callee is only a *types.Func, and its behavior arrives as a fact (see
// facts.go). Dynamic
// calls — through function values, interface methods, or closures passed as
// arguments — have no static callee and are deliberately not modeled: every
// analyzer built on this graph treats an unresolved call as "unknown" and
// stays silent rather than guessing.

import (
	"go/ast"
	"go/types"
	"strings"
)

// OwnerDirective is the comment prefix of the goroutine-ownership annotation.
//
// Grammar (one per function, in the doc comment):
//
//	//cv:owner worker    entry point of (or reachable only from) the single
//	                     kernel-owning goroutine: the write-worker loop or
//	                     the boot path that runs before the worker starts.
//	//cv:owner any       entry point that may run on any goroutine (HTTP
//	                     handlers, the follower tail loop, replica readers);
//	                     must stay read-only with respect to the primary
//	                     kernel and checker.
//
// kernelowner seeds its reachability check from these annotations and flags
// any other value as malformed.
const OwnerDirective = "//cv:owner"

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
	Decl  *ast.FuncDecl
	Obj   *types.Func
	Owner string // "" when unannotated, else the //cv:owner value
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
			n := &FuncNode{Decl: fd, Obj: obj, Owner: ownerOf(fd)}
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

// ownerOf extracts the //cv:owner value from a declaration's doc comment.
func ownerOf(fd *ast.FuncDecl) string {
	if fd.Doc == nil {
		return ""
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, OwnerDirective) {
			return strings.TrimSpace(strings.TrimPrefix(c.Text, OwnerDirective))
		}
	}
	return ""
}

// CallArgs returns the receiver-unified argument expressions of a call to
// callee: for a method invoked through a value receiver expression, element
// 0 is that receiver expression, aligning indices with FuncParams. For
// method expressions (T.M(recv, ...)) the call's own arguments are already
// aligned.
func CallArgs(info *types.Info, call *ast.CallExpr, callee *types.Func) []ast.Expr {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return call.Args
	}
	if sig.Recv() == nil {
		return call.Args
	}
	if sel, ok := Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if selInfo, ok := info.Selections[sel]; ok && selInfo.Kind() == types.MethodVal {
			return append([]ast.Expr{sel.X}, call.Args...)
		}
	}
	return call.Args
}

// FuncParams returns the receiver-unified parameter objects of a declared
// function, resolved through the type checker so they compare equal to the
// objects behind identifier uses in the body: element 0 is the receiver for
// methods, then the ordinary parameters.
func FuncParams(info *types.Info, fd *ast.FuncDecl) []*types.Var {
	obj, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	sig := obj.Type().(*types.Signature)
	var out []*types.Var
	if sig.Recv() != nil {
		out = append(out, sig.Recv())
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}
