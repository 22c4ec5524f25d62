// Package kernelmix flags BDD handles crossing kernel boundaries.
//
// A bdd.Ref is a plain int32 index into the node table of the kernel that
// minted it; handed to a different kernel it silently denotes an unrelated
// node (or walks off the table). The replica read pool gives the process
// several kernels per request path — a primary plus N replicas — and the
// only bridge between them is a bdd.Image, which carries no Ref: Export and
// Import each speak to one kernel. Mixing Refs up is a live hazard that the
// type system cannot see: every Ref has the same type.
//
// The analyzer runs a per-function forward dataflow in statement order: each
// Ref-typed local is tagged with the kernel expression that minted it (a
// direct kernel method call or a copy of a tagged value). A tagged Ref passed
// to a method of a provably different kernel is reported.
// Two kernel expressions are "provably different" only when both normalize
// to stable access paths (identifiers, field chains, call chains without
// arguments) with distinct spellings rooted at distinct objects — unknown or
// aliasing-prone receivers stay silent, trading recall for a near-zero
// false-positive rate.
//
// The dataflow crosses function boundaries through summaries. Each declared
// function taking a kernel parameter is summarized to a fixed point over the
// package-local call graph and exported as a fact: ReturnsParam records that
// the function's Ref result is minted by one of its kernel parameters, so
// the result is tagged at the call site from the corresponding argument;
// RefParams records that a Ref parameter reaches methods of one of the
// kernel parameters, so a call site can check its arguments' origins against
// the pairing without seeing the callee's body.
package kernelmix

import (
	"go/ast"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

// Analyzer is the kernelmix analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "kernelmix",
	Doc: "flags bdd.Ref values minted by one kernel and passed to a method of another " +
		"(BDDs cross kernels as a bdd.Image, which carries none)",
	Run: run,
}

// Fact summarizes how a function's Refs relate to its kernel parameters.
// Parameter indices are receiver-unified: for methods, index 0 is the
// receiver and ordinary parameters start at 1.
type Fact struct {
	// ReturnsParam is 1 + the index of the kernel parameter that mints the
	// function's Ref result on every return; 0 when no single parameter
	// provably does.
	ReturnsParam int `json:"returns_param,omitempty"`
	// RefParams pairs the index of a Ref-typed parameter with the index of
	// the kernel parameter whose methods it reaches inside the body.
	RefParams [][2]int `json:"ref_params,omitempty"`
}

func run(pass *analysis.Pass) error {
	g := analysis.BuildCallGraph(pass)
	mi := &mixIndex{pass: pass, local: map[*types.Func]*Fact{}}
	// Summaries consult each other (a wrapper around a minting helper also
	// mints), so iterate to a fixed point; facts only gain information.
	for changed, rounds := true, 0; changed && rounds <= len(g.Funcs)+1; rounds++ {
		changed = false
		for _, n := range g.Funcs {
			f := summarize(pass, mi, n)
			if !factEqual(f, mi.local[n.Obj]) {
				mi.local[n.Obj], changed = f, true
			}
		}
	}
	for _, n := range g.Funcs {
		if f := mi.local[n.Obj]; f != nil && (f.ReturnsParam != 0 || len(f.RefParams) > 0) {
			if err := pass.ExportFact(analysis.FuncKey(n.Obj), f); err != nil {
				return err
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body
			case *ast.FuncLit:
				body = n.Body
			}
			if body != nil {
				newTracker(pass, mi).walk(body)
			}
			return true
		})
	}
	return nil
}

// mixIndex resolves callee summaries: the local fixpoint for same-package
// functions, imported facts for everything else.
type mixIndex struct {
	pass  *analysis.Pass
	local map[*types.Func]*Fact
}

func (mi *mixIndex) fact(fn *types.Func) *Fact {
	if f, ok := mi.local[fn]; ok {
		return f
	}
	var f Fact
	if mi.pass.ImportObjectFact(fn, &f) {
		return &f
	}
	return nil
}

func factEqual(a, b *Fact) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.ReturnsParam != b.ReturnsParam || len(a.RefParams) != len(b.RefParams) {
		return false
	}
	for i := range a.RefParams {
		if a.RefParams[i] != b.RefParams[i] {
			return false
		}
	}
	return true
}

// summary is the in-progress fact of the function being summarized.
type summary struct {
	kernelIdx map[types.Object]int // kernel-typed parameters → unified index
	refIdx    map[types.Object]int // Ref-typed parameters → unified index
	pairs     map[[2]int]bool      // observed (ref param, kernel param) uses
	refResult int                  // index of the Ref result in the results tuple, or -1
	retIdx    int                  // minting kernel param (-1 unresolved, -2 conflicting)
}

// summarize walks one declared function in summary mode: Ref parameters are
// seeded as tagged values, and uses against kernel parameters are collected
// instead of reported.
func summarize(pass *analysis.Pass, mi *mixIndex, n *analysis.FuncNode) *Fact {
	sum := &summary{
		kernelIdx: map[types.Object]int{},
		refIdx:    map[types.Object]int{},
		pairs:     map[[2]int]bool{},
		refResult: -1,
		retIdx:    -1,
	}
	tr := newTracker(pass, mi)
	tr.sum = sum
	for i, p := range analysis.CalleeParams(n.Obj) {
		switch {
		case analysis.IsKernelPtr(p.Type()):
			sum.kernelIdx[p] = i
		case analysis.IsRef(p.Type()):
			sum.refIdx[p] = i
			tr.refOrigin[p] = origin{key: "#param:" + p.Name(), obj: p}
		}
	}
	if len(sum.kernelIdx) == 0 {
		return &Fact{}
	}
	if sig, ok := n.Obj.Type().(*types.Signature); ok {
		for i := 0; i < sig.Results().Len(); i++ {
			if analysis.IsRef(sig.Results().At(i).Type()) {
				if sum.refResult >= 0 {
					sum.refResult = -1 // more than one Ref result: give up
					break
				}
				sum.refResult = i
			}
		}
	}
	tr.walk(n.Decl.Body)
	f := &Fact{}
	if sum.retIdx >= 0 {
		f.ReturnsParam = sum.retIdx + 1
	}
	for p := range sum.pairs {
		f.RefParams = append(f.RefParams, p)
	}
	sort.Slice(f.RefParams, func(i, j int) bool {
		if f.RefParams[i][0] != f.RefParams[j][0] {
			return f.RefParams[i][0] < f.RefParams[j][0]
		}
		return f.RefParams[i][1] < f.RefParams[j][1]
	})
	return f
}

// origin identifies the kernel an expression was minted by.
type origin struct {
	key string // normalized kernel access path ("k", "s.kernel", "p.Kernel()")
	obj types.Object
}

type tracker struct {
	pass *analysis.Pass
	mi   *mixIndex
	sum  *summary // non-nil in summary mode: collect, do not report
	// refOrigin tags Ref-typed locals; kernelAlias maps kernel-typed locals
	// to the access path they alias (k := s.kernel), so aliased spellings of
	// one kernel are never reported against each other.
	refOrigin   map[types.Object]origin
	kernelAlias map[types.Object]origin
}

func newTracker(pass *analysis.Pass, mi *mixIndex) *tracker {
	return &tracker{
		pass:        pass,
		mi:          mi,
		refOrigin:   map[types.Object]origin{},
		kernelAlias: map[types.Object]origin{},
	}
}

// walk runs the statement-order dataflow over one body: assignments update
// the tag maps, calls are checked (or collected), returns feed the summary.
// Nested function literals are walked by the caller as their own functions.
func (tr *tracker) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			tr.assign(n)
		case *ast.CallExpr:
			tr.checkCall(n)
		case *ast.ReturnStmt:
			tr.ret(n)
		}
		return true
	})
}

func (tr *tracker) info() *types.Info { return tr.pass.TypesInfo }

// kernelKey normalizes a kernel-typed expression to a stable access path,
// resolving in-function aliases (k := s.kernel). The bool result is false
// for expressions that cannot be compared (calls with arguments, index
// expressions, arbitrary computation).
func (tr *tracker) kernelKey(e ast.Expr) (origin, bool) {
	info := tr.info()
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if obj == nil {
			return origin{}, false
		}
		if o, ok := tr.kernelAlias[obj]; ok {
			return o, true
		}
		return origin{key: e.Name, obj: obj}, true
	case *ast.ParenExpr:
		return tr.kernelKey(e.X)
	case *ast.SelectorExpr:
		base, ok := tr.kernelKey(e.X)
		if !ok {
			return origin{}, false
		}
		return origin{key: base.key + "." + e.Sel.Name, obj: base.obj}, true
	case *ast.CallExpr:
		// Zero-argument accessor chains (store.Kernel(), p.Primary().Kernel())
		// are stable enough to compare by spelling.
		if len(e.Args) != 0 {
			return origin{}, false
		}
		base, ok := tr.kernelKey(e.Fun)
		if !ok {
			return origin{}, false
		}
		return origin{key: base.key + "()", obj: base.obj}, true
	}
	return origin{}, false
}

// paramKernel resolves e to one of the summarized function's kernel
// parameters, returning its unified index.
func (tr *tracker) paramKernel(e ast.Expr) (int, bool) {
	o, ok := tr.kernelKey(e)
	if !ok || tr.sum == nil {
		return 0, false
	}
	i, isParam := tr.sum.kernelIdx[o.obj]
	return i, isParam && o.key == o.obj.Name()
}

// exprOrigin computes the minting kernel of a Ref-typed expression, if known.
func (tr *tracker) exprOrigin(e ast.Expr) (origin, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		if o, ok := tr.refOrigin[tr.info().ObjectOf(e)]; ok {
			return o, true
		}
	case *ast.ParenExpr:
		return tr.exprOrigin(e.X)
	case *ast.CallExpr:
		if recv, _, ok := analysis.KernelMethod(tr.info(), e); ok {
			if tv, ok := tr.info().Types[e]; ok && analysis.IsRef(tv.Type) {
				return tr.kernelKey(recv)
			}
			return origin{}, false
		}
		// A callee whose summary says "my Ref result is minted by kernel
		// parameter i" tags the result with the corresponding argument.
		if callee := analysis.StaticCallee(tr.info(), e); callee != nil {
			if f := tr.mi.fact(callee); f != nil && f.ReturnsParam > 0 {
				args := analysis.CallArgs(tr.info(), e, callee)
				if i := f.ReturnsParam - 1; i < len(args) {
					return tr.kernelKey(args[i])
				}
			}
		}
	}
	return origin{}, false
}

// assign propagates kernel tags through the statement.
func (tr *tracker) assign(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, l := range as.Lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			continue
		}
		obj := tr.info().ObjectOf(id)
		if obj == nil {
			continue
		}
		if tv, ok := tr.info().Types[as.Rhs[i]]; ok && analysis.IsKernelPtr(tv.Type) {
			// k := s.kernel — record the alias so both spellings compare equal.
			if o, ok := tr.kernelKey(as.Rhs[i]); ok {
				tr.kernelAlias[obj] = o
			} else {
				delete(tr.kernelAlias, obj)
			}
			continue
		}
		if o, ok := tr.exprOrigin(as.Rhs[i]); ok {
			tr.refOrigin[obj] = o
		} else {
			// Overwritten with something untracked: drop a stale tag.
			delete(tr.refOrigin, obj)
		}
	}
}

// checkCall dispatches between direct kernel method calls and calls whose
// callee summary pairs Ref and kernel parameters.
func (tr *tracker) checkCall(call *ast.CallExpr) {
	if recv, name, ok := analysis.KernelMethod(tr.info(), call); ok {
		tr.checkKernelCall(call, recv, name)
		return
	}
	tr.checkForwardCall(call)
}

// checkKernelCall reports tagged Refs passed to a method of a different
// kernel; in summary mode it collects (ref param, kernel param) pairs.
func (tr *tracker) checkKernelCall(call *ast.CallExpr, recv ast.Expr, name string) {
	callee, ok := tr.kernelKey(recv)
	if !ok {
		return
	}
	for _, a := range call.Args {
		if tv, ok := tr.info().Types[a]; !ok || !analysis.IsRef(tv.Type) {
			continue
		}
		o, known := tr.exprOrigin(a)
		if !known {
			continue
		}
		if tr.sum != nil {
			if ri, isRefParam := tr.sum.refIdx[o.obj]; isRefParam {
				if ki, isKParam := tr.paramKernel(recv); isKParam {
					tr.sum.pairs[[2]int{ri, ki}] = true
				}
			}
			continue
		}
		tr.compare(a, o, callee, "method "+name)
	}
}

// checkForwardCall checks a call against the callee's RefParams pairings:
// each paired (Ref, kernel) argument duo must agree on the minting kernel.
func (tr *tracker) checkForwardCall(call *ast.CallExpr) {
	callee := analysis.StaticCallee(tr.info(), call)
	if callee == nil {
		return
	}
	f := tr.mi.fact(callee)
	if f == nil || len(f.RefParams) == 0 {
		return
	}
	args := analysis.CallArgs(tr.info(), call, callee)
	for _, pr := range f.RefParams {
		ri, ki := pr[0], pr[1]
		if ri >= len(args) || ki >= len(args) {
			continue
		}
		o, known := tr.exprOrigin(args[ri])
		if !known {
			continue
		}
		if tr.sum != nil {
			// Forwarding our own parameters to a paired callee pairs them
			// here too; this is how RefParams propagates up wrappers.
			if myRef, isRefParam := tr.sum.refIdx[o.obj]; isRefParam {
				if myK, isKParam := tr.paramKernel(args[ki]); isKParam {
					tr.sum.pairs[[2]int{myRef, myK}] = true
				}
			}
			continue
		}
		c, ok := tr.kernelKey(args[ki])
		if !ok {
			continue
		}
		tr.compare(args[ri], o, c, callee.Name())
	}
}

// compare reports a provable origin mismatch between a Ref and the kernel
// consuming it.
func (tr *tracker) compare(at ast.Expr, o, callee origin, sink string) {
	if o.key == callee.key && o.obj == callee.obj {
		return
	}
	if o.obj == callee.obj && o.key != callee.key {
		// Same root object reached through different paths (k vs k.sub):
		// cannot prove distinctness.
		return
	}
	if o.obj != callee.obj && sameSpelling(o.key, callee.key) {
		return
	}
	tr.pass.Reportf(at.Pos(),
		"Ref minted by kernel %q passed to %s of kernel %q; move BDDs between kernels as a bdd.Image (Export, Import)",
		o.key, sink, callee.key)
}

// ret feeds the summary's ReturnsParam: every return's Ref result must be
// minted by the same kernel parameter.
func (tr *tracker) ret(s *ast.ReturnStmt) {
	if tr.sum == nil || tr.sum.refResult < 0 || tr.sum.retIdx == -2 {
		return
	}
	if len(s.Results) <= tr.sum.refResult {
		tr.sum.retIdx = -2 // bare or mismatched return: give up
		return
	}
	if o, known := tr.exprOrigin(s.Results[tr.sum.refResult]); known {
		if ki, isParam := tr.sum.kernelIdx[o.obj]; isParam && o.key == o.obj.Name() {
			if tr.sum.retIdx == -1 || tr.sum.retIdx == ki {
				tr.sum.retIdx = ki
				return
			}
		}
	}
	tr.sum.retIdx = -2
}

// sameSpelling guards against distinct objects that still denote the same
// kernel access path in different scopes (rare; stay silent).
func sameSpelling(a, b string) bool { return a == b }
