// Package lockorder detects cycles in the global mutex-acquisition order.
//
// The repository's locks are individually simple — guard a map, a channel
// swap, a manifest — but deadlock is a property of their composition: if one
// code path acquires A then B while another acquires B then A, the paths can
// block each other forever, and nothing in either function looks wrong in
// review. The established prevention is a global acquisition order; this
// analyzer infers the observed order and flags any pair of acquisitions that
// closes a cycle.
//
// A lock is identified by its declaration site — "pkg.Type.field" for a
// mutex field, "pkg.var" for a package-level mutex; function-local mutexes
// cannot participate in cross-function cycles and are ignored. Within each
// function the analyzer tracks the held set in syntactic order: Lock/RLock
// pushes, Unlock/RUnlock releases, a deferred unlock keeps the lock held to
// the end of the function (the dominant lock-then-defer idiom). Acquiring B
// with A held records the edge A → B; calling a function whose summary says
// it acquires B records the same edge. Summaries (the lock IDs a function
// may acquire, transitively) are keyed by FuncKey and propagate through the
// static calls of the whole module, so the edge set is built once and every
// edge that closes a cycle is reported where it was first observed.
//
// Function literals run on their own goroutine or their own call chain
// (pool.Do callbacks, go statements), so their bodies are scanned with an
// empty held set; their acquisitions still count toward the enclosing
// function's summary, since calling it is what triggers them.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the lockorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "checks mutex acquisitions against the globally observed acquisition order " +
		"and flags pairs that close a cycle (a latent deadlock)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	edges := Edges(pass.Pkgs)
	order := make([][2]string, 0, len(edges))
	for e := range edges {
		order = append(order, e)
	}
	sort.Slice(order, func(i, j int) bool {
		if pi, pj := edges[order[i]], edges[order[j]]; pi != pj {
			return pi < pj
		}
		return order[i][1] < order[j][1]
	})
	graph := map[string][]string{}
	for _, e := range order {
		graph[e[0]] = append(graph[e[0]], e[1])
	}
	for _, e := range order {
		from, to := e[0], e[1]
		if path := findPath(graph, to, from); path != nil {
			pass.Reportf(edges[e],
				"acquiring %s while holding %s creates a cycle in the global mutex order (%s)",
				to, from, strings.Join(append(path, to), " → "))
		}
	}
	return nil
}

// Edges returns every acquisition edge, held → acquired, observed in pkgs,
// at the position of its first observation.
func Edges(pkgs []*analysis.Package) map[[2]string]token.Pos {
	// Pass 1: direct acquisitions, then the transitive closure over calls.
	type fn struct {
		*analysis.FuncNode
		info *types.Info
		set  map[string]bool
	}
	var fns []fn
	acquires := map[string]map[string]bool{}
	for _, p := range pkgs {
		for _, n := range analysis.Funcs(p) {
			key := analysis.FuncKey(n.Obj)
			set := acquires[key]
			if set == nil { // several init functions share a key
				set = map[string]bool{}
				acquires[key] = set
			}
			ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
				if call, ok := node.(*ast.CallExpr); ok {
					if id, op := lockCall(p.Info, call); op == opAcquire && id != "" {
						set[id] = true
					}
				}
				return true
			})
			fns = append(fns, fn{n, p.Info, set})
		}
	}
	for changed, rounds := true, 0; changed && rounds <= len(fns)+1; rounds++ {
		changed = false
		for _, f := range fns {
			for _, callee := range f.Calls {
				for id := range acquires[analysis.FuncKey(callee)] {
					if !f.set[id] {
						f.set[id], changed = true, true
					}
				}
			}
		}
	}

	// Pass 2: held-set walk collecting edges.
	ec := &edgeCollector{acquires: acquires, edges: map[[2]string]token.Pos{}}
	for _, f := range fns {
		ec.info = f.info
		ec.scan(f.Decl.Body, nil)
	}
	return ec.edges
}

// edgeCollector walks bodies in syntactic order, maintaining the held list.
type edgeCollector struct {
	info     *types.Info
	acquires map[string]map[string]bool // FuncKey -> lock IDs
	edges    map[[2]string]token.Pos    // first observation wins
}

// scan walks one body with the given held prefix (nil for an entry body).
func (ec *edgeCollector) scan(body ast.Node, held []string) {
	ast.Inspect(body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.DeferStmt:
			// Deferred unlocks run at return: the lock stays held for the
			// rest of the function. Other deferred work is out of path order.
			return false
		case *ast.FuncLit:
			ec.scan(x.Body, nil)
			return false
		case *ast.GoStmt:
			// The goroutine does not inherit this path's held locks.
			ec.scan(x.Call, nil)
			return false
		case *ast.CallExpr:
			if id, op := lockCall(ec.info, x); id != "" {
				switch op {
				case opAcquire:
					for _, h := range held {
						if h != id {
							ec.edge(h, id, x.Pos())
						}
					}
					held = append(held, id)
				case opRelease:
					for i := len(held) - 1; i >= 0; i-- {
						if held[i] == id {
							held = append(held[:i], held[i+1:]...)
							break
						}
					}
				}
				return true
			}
			if callee := analysis.StaticCallee(ec.info, x); callee != nil {
				for a := range ec.acquires[analysis.FuncKey(callee)] {
					for _, h := range held {
						if h != a {
							ec.edge(h, a, x.Pos())
						}
					}
				}
			}
		}
		return true
	})
}

func (ec *edgeCollector) edge(from, to string, pos token.Pos) {
	key := [2]string{from, to}
	if _, ok := ec.edges[key]; !ok {
		ec.edges[key] = pos
	}
}

const (
	opNone = iota
	opAcquire
	opRelease
)

// lockCall classifies a call as a mutex acquire/release and resolves the
// lock's identity; id is "" for local or unresolvable mutexes.
func lockCall(info *types.Info, call *ast.CallExpr) (id string, op int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return "", opNone
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = opAcquire
	case "Unlock", "RUnlock":
		op = opRelease
	default:
		return "", opNone
	}
	tv, ok := info.Types[sel.X]
	if !ok || !isSyncMutex(tv.Type) {
		return "", opNone
	}
	return lockID(info, sel.X), op
}

// isSyncMutex reports whether t (or its pointee) is sync.Mutex or
// sync.RWMutex.
func isSyncMutex(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// lockID names a mutex by its declaration site: "pkg.Type.field" for a
// field, "pkg.var" for a package-level mutex, "" otherwise.
func lockID(info *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		t := info.Types[e.X].Type
		if t == nil {
			return ""
		}
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
			return ""
		}
		return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + e.Sel.Name
	case *ast.Ident:
		if v, ok := info.ObjectOf(e).(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
	}
	return ""
}

// findPath returns the node sequence from from to to (inclusive), or nil.
func findPath(graph map[string][]string, from, to string) []string {
	parent := map[string]string{from: from}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == to {
			var path []string
			for n := to; ; n = parent[n] {
				path = append([]string{n}, path...)
				if n == from {
					return path
				}
			}
		}
		for _, next := range graph[cur] {
			if _, seen := parent[next]; !seen {
				parent[next] = cur
				queue = append(queue, next)
			}
		}
	}
	return nil
}
