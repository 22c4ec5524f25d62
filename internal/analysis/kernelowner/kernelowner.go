// Package kernelowner enforces the single-writer ownership of the primary
// BDD kernel and checker.
//
// The service's correctness argument (DESIGN.md, "Static contracts") rests on
// one goroutine — the write-worker loop, plus the boot path that runs before
// it starts — performing every structural mutation of the primary
// core.Checker / bdd.Kernel: Apply, index builds, collections, snapshot
// adoption. HTTP handlers, the follower tail loop and replica readers run
// concurrently with the worker and must stay read-only; the type system
// cannot tell these call sites apart because the mutating methods hang off
// the same types everyone holds.
//
// Entry points declare their goroutine with a //cv:owner annotation (grammar
// at analysis.OwnerDirective): `worker` for the kernel-owning loop and boot,
// `any` for code that may run on any goroutine. The analyzer computes, for
// every function, which of its receiver-unified parameters (and whether any
// package-level state) can have a checker/kernel structurally mutated by
// calling it — directly, through same-package calls (the package-local call
// graph), or through imported calls (function-summary facts carried by the
// vet fact protocol). A `//cv:owner any` function whose summary is non-empty
// is reported, with the call chain to the offending primitive. The function
// literal of a `go` statement is an `any` root too, whatever its enclosing
// function's owner: the goroutine it starts runs beside its spawner.
//
// Mutations of locally created checkers and kernels are exempt: a value
// whose access path roots at a plain local initialized from an
// argument-taking call (store.CheckerAt restoring a private historical
// checker, core.New building a replica) is fresh by construction, and
// mutating it from any goroutine is sound. Zero-argument accessor chains
// (s.chk.Store().Kernel()) keep the identity of their root. Evaluation
// methods (CheckOne, ViolationWitnesses, bdd.And, ...) allocate nodes but
// are deliberately not in the mutating set: replicas and history entries
// evaluate on private kernels from handler goroutines by design, and
// Config.DebugChecks catches a Ref handed to a kernel that did not mint it.
package kernelowner

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

// Analyzer is the kernelowner analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "kernelowner",
	Doc: "checks that structural mutations of bdd.Kernel/core.Checker are reachable only from " +
		"//cv:owner worker entry points, never from //cv:owner any (handler/replica/tail) paths",
	Run: run,
}

// kernelMut are the *bdd.Kernel methods that restructure shared kernel
// state. Allocation during evaluation (And, MakeNode, ...) is excluded by
// design; Import is not, because it is how a kernel takes over another's
// indices (core's AdoptIndices and AdvanceIndices).
var kernelMut = map[string]bool{
	"SetBudget":      true,
	"SetDebugChecks": true,
	"ClearCaches":    true,
	"GC":             true,
	"SafePoint":      true,
	"AddVars":        true,
	"Import":         true,
}

// checkerMut are the *core.Checker methods that mutate the database image or
// its indexes.
var checkerMut = map[string]bool{
	"Apply":          true,
	"BuildIndex":     true,
	"AdoptIndices":   true,
	"AdvanceIndices": true,
	// ReadProjections computes and pins projections on the indices.
	"ReadProjections": true,
}

// Fact summarizes how calling a function can mutate kernel/checker state
// that outlives it: Params lists the receiver-unified parameter indices
// whose kernel or checker may be structurally mutated, Global is set when
// package-level or captured state is. Via is the call chain down to the
// mutating primitive, for diagnostics.
type Fact struct {
	Params []int  `json:"params,omitempty"`
	Global bool   `json:"global,omitempty"`
	Via    string `json:"via,omitempty"`
}

func (f *Fact) empty() bool { return f == nil || (!f.Global && len(f.Params) == 0) }

func (f *Fact) addParam(i int) bool {
	for _, p := range f.Params {
		if p == i {
			return false
		}
	}
	f.Params = append(f.Params, i)
	sort.Ints(f.Params)
	return true
}

// class is the provenance of an access path's root.
type class struct {
	kind  int // classFresh, classParam, classGlobal
	param int
}

const (
	classFresh = iota
	classParam
	classGlobal
)

// funcScope is the per-function context: unified parameters and the local
// alias map (k := s.chk records k as an alias of parameter s).
type funcScope struct {
	params map[types.Object]int
	alias  map[types.Object]class
}

func run(pass *analysis.Pass) error {
	g := analysis.BuildCallGraph(pass)
	info := pass.TypesInfo

	scopes := make(map[*analysis.FuncNode]*funcScope, len(g.Funcs))
	summaries := make(map[*analysis.FuncNode]*Fact, len(g.Funcs))
	for _, n := range g.Funcs {
		sc := newFuncScope(info, n)
		scopes[n] = sc
		summaries[n] = directFact(pass, sc, n.Decl.Body)
	}
	calleeFact := func(cs analysis.CallSite) *Fact {
		if cs.Local != nil {
			return summaries[cs.Local]
		}
		var imported Fact
		if pass.ImportObjectFact(cs.Callee, &imported) {
			return &imported
		}
		return nil
	}

	// Propagate through the package-local call graph to a fixed point:
	// facts only grow, so this terminates.
	for changed, rounds := true, 0; changed && rounds <= len(g.Funcs)+1; rounds++ {
		changed = false
		for _, n := range g.Funcs {
			if addCalls(info, scopes[n], summaries[n], n.Calls, calleeFact) {
				changed = true
			}
		}
	}

	for _, n := range g.Funcs {
		sum := summaries[n]
		if !sum.empty() {
			if err := pass.ExportFact(analysis.FuncKey(n.Obj), sum); err != nil {
				return err
			}
		}
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			gs, ok := node.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := analysis.Unparen(gs.Call.Fun).(*ast.FuncLit)
			if !ok {
				return true
			}
			var inLit []analysis.CallSite
			for _, cs := range n.Calls {
				if cs.Call.Pos() >= lit.Pos() && cs.Call.End() <= lit.End() {
					inLit = append(inLit, cs)
				}
			}
			litSum := directFact(pass, scopes[n], lit.Body)
			addCalls(info, scopes[n], litSum, inLit, calleeFact)
			if !litSum.empty() {
				pass.Reportf(gs.Pos(),
					"goroutine started here runs beside %s but can mutate kernel/checker state via %s; "+
						"structural mutations are reserved to //cv:owner worker (the write-worker loop and boot)",
					n.Decl.Name.Name, litSum.Via)
			}
			return true
		})
		switch n.Owner {
		case "":
			continue
		case "worker":
			// The kernel owner may mutate freely.
		case "any":
			if !sum.empty() {
				pass.Reportf(n.Decl.Name.Pos(),
					"%s is annotated //cv:owner any but can mutate kernel/checker state via %s; "+
						"structural mutations are reserved to //cv:owner worker (the write-worker loop and boot)",
					n.Decl.Name.Name, sum.Via)
			}
		default:
			pass.Reportf(n.Decl.Name.Pos(),
				"malformed //cv:owner directive %q on %s: value must be \"worker\" or \"any\"",
				n.Owner, n.Decl.Name.Name)
		}
	}
	return nil
}

// addCalls folds the callees' summaries into sum for the given call sites of
// sc's function and reports whether sum grew.
func addCalls(info *types.Info, sc *funcScope, sum *Fact, calls []analysis.CallSite, calleeFact func(analysis.CallSite) *Fact) bool {
	changed := false
	for _, cs := range calls {
		cf := calleeFact(cs)
		if cf.empty() {
			continue
		}
		via := analysis.FuncKey(cs.Callee)
		if cf.Via != "" {
			via += " → " + cf.Via
		}
		if cf.Global && !sum.Global {
			sum.Global, sum.Via, changed = true, via, true
		}
		args := analysis.CallArgs(info, cs.Call, cs.Callee)
		for _, p := range cf.Params {
			if p >= len(args) {
				continue
			}
			switch c := sc.rootClass(info, args[p]); c.kind {
			case classParam:
				if sum.addParam(c.param) {
					changed = true
					if sum.Via == "" {
						sum.Via = via
					}
				}
			case classGlobal:
				if !sum.Global {
					sum.Global, changed = true, true
					if sum.Via == "" {
						sum.Via = via
					}
				}
			}
		}
	}
	return changed
}

// newFuncScope indexes the unified parameters and records local aliases of
// externally rooted values, in lexical order.
func newFuncScope(info *types.Info, n *analysis.FuncNode) *funcScope {
	sc := &funcScope{
		params: map[types.Object]int{},
		alias:  map[types.Object]class{},
	}
	for i, v := range analysis.FuncParams(info, n.Decl) {
		sc.params[v] = i
	}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, l := range s.Lhs {
				id, ok := l.(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.ObjectOf(id)
				if obj == nil {
					continue
				}
				if c := sc.rootClass(info, s.Rhs[i]); c.kind != classFresh {
					sc.alias[obj] = c
				}
			}
		}
		return true
	})
	return sc
}

// rootClass resolves the provenance of an expression's access-path root:
// a unified parameter of the enclosing declaration, package-level state, or
// a fresh/unknown local. Zero-argument call chains are accessors and keep
// their root; argument-taking calls construct fresh values.
func (sc *funcScope) rootClass(info *types.Info, e ast.Expr) class {
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if obj == nil {
			return class{kind: classFresh}
		}
		if c, ok := sc.alias[obj]; ok {
			return c
		}
		if i, ok := sc.params[obj]; ok {
			return class{kind: classParam, param: i}
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return class{kind: classGlobal}
		}
		return class{kind: classFresh}
	case *ast.SelectorExpr:
		// Package-qualified selector (pkg.Var) roots at package state.
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := info.ObjectOf(id).(*types.PkgName); isPkg {
				return class{kind: classGlobal}
			}
		}
		return sc.rootClass(info, e.X)
	case *ast.CallExpr:
		if len(e.Args) == 0 {
			return sc.rootClass(info, e.Fun)
		}
		return class{kind: classFresh}
	case *ast.ParenExpr:
		return sc.rootClass(info, e.X)
	case *ast.StarExpr:
		return sc.rootClass(info, e.X)
	case *ast.UnaryExpr:
		return sc.rootClass(info, e.X)
	case *ast.IndexExpr:
		return sc.rootClass(info, e.X)
	}
	return class{kind: classFresh}
}

// directFact scans body, a function body of sc's declaration (nested
// literals included — their own parameters classify as fresh, which exempts
// pool callbacks operating on private replica checkers), for direct mutation
// sites.
func directFact(pass *analysis.Pass, sc *funcScope, body *ast.BlockStmt) *Fact {
	info := pass.TypesInfo
	sum := &Fact{}
	record := func(target ast.Expr, desc string) {
		switch c := sc.rootClass(info, target); c.kind {
		case classParam:
			if sum.addParam(c.param) && sum.Via == "" {
				sum.Via = desc
			}
		case classGlobal:
			if !sum.Global {
				sum.Global = true
				if sum.Via == "" {
					sum.Via = desc
				}
			}
		}
	}
	ast.Inspect(body, func(node ast.Node) bool {
		switch n := node.(type) {
		case *ast.CallExpr:
			if recv, name, ok := analysis.KernelMethod(info, n); ok && kernelMut[name] {
				record(recv, fmt.Sprintf("(*Kernel).%s", name))
			}
			if recv, name, ok := analysis.CheckerMethod(info, n); ok && checkerMut[name] {
				record(recv, fmt.Sprintf("(*Checker).%s", name))
			}
		case *ast.AssignStmt:
			// Replacing a checker/kernel held by external state (s.chk = chk)
			// is as much a mutation as calling Apply on it.
			for _, l := range n.Lhs {
				sel, ok := l.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				tv, ok := info.Types[sel]
				if !ok || (!analysis.IsCheckerPtr(tv.Type) && !analysis.IsKernelPtr(tv.Type)) {
					continue
				}
				record(sel.X, fmt.Sprintf("assignment to field %s", sel.Sel.Name))
			}
		}
		return true
	})
	return sum
}
