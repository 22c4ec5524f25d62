// Package bdd implements Reduced Ordered Binary Decision Diagrams (ROBDDs)
// with a shared unique-node table, memoized boolean operations, variable
// quantification, combined apply-quantify operations (the analogues of
// BuDDy's bdd_appex and bdd_appall), ordered variable replacement, garbage
// collection with external reference pinning, dynamic variable reordering
// (Rudell sifting, see reorder.go), and a configurable node budget that
// aborts operations whose intermediate results explode.
//
// The package is a from-scratch substitute for the BuDDy C library used by
// the paper "Fast Identification of Relational Constraint Violations"
// (ICDE 2007). Node canonicity (Bryant 1986) is maintained at all times:
// two logically equivalent functions built in the same Kernel always receive
// the same Ref, so validity and satisfiability tests are O(1) comparisons
// against True and False.
//
// Levels and variables are distinct notions: a node's position in the
// diagram is its level (level 0 at the top), while the boolean variable it
// tests is looked up through a level↔variable permutation. A fresh kernel
// starts with the identity permutation (variable i at level i); Reorder and
// SetOrder change it. Everything variable-facing (Var, Literal, Support,
// replacement pairs) speaks variables; the internal recursion and cubes
// compare levels.
//
// Kernels are not safe for concurrent use; callers that share a Kernel
// across goroutines must serialize access.
//
// Several usage contracts of this API are not expressible in Go's type
// system — Refs must stay with the Kernel that minted them (kernelmix),
// TempMark/TempRelease and Protect/Unprotect must balance (tempmark), and
// the sentinel errors below may arrive wrapped (sentinelcmp). cmd/cvlint
// checks all three statically; Config.DebugChecks validates the first at run
// time. The sticky Err must be consulted at the end of an allocation chain;
// core's budget sweep test checks that at run time. See DESIGN.md, section
// "Static contracts".
package bdd

import (
	"errors"
	"fmt"
	"math"
)

// Ref is a handle to a BDD node inside a Kernel. Refs are only meaningful
// relative to the Kernel that produced them. The zero Ref is False.
type Ref int32

// Reserved references.
const (
	// False is the terminal node for the constant false function.
	False Ref = 0
	// True is the terminal node for the constant true function.
	True Ref = 1
	// Invalid is returned by operations that were aborted (see Kernel.Err)
	// or that received invalid arguments. Operations on Invalid propagate
	// Invalid, so a chain of operations needs only one error check at the end.
	Invalid Ref = -1
)

// terminalLevel is the level assigned to the two terminal nodes. It orders
// after every variable level.
const terminalLevel = math.MaxUint32

// freedLevel stamps the level field of swept nodes, so a free-list slot is
// recognizable: garbage collection and reordering both rely on the stamp to
// tell live slots from reclaimed ones, and DebugChecks uses it to catch a
// stale Ref dereferencing a freed slot. It can never collide with a real
// level or with terminalLevel. makeNode overwrites the stamp when the slot
// is reused.
const freedLevel = math.MaxUint32 - 1

// ErrBudget is reported by Kernel.Err when an operation would have grown the
// node table past the configured node budget. The paper's query-processing
// strategy treats this as the signal to abandon BDD evaluation and fall back
// to SQL processing.
var ErrBudget = errors.New("bdd: node budget exceeded")

// ErrOrder is reported when a Replace mapping does not preserve the relative
// variable order, which the linear replace algorithm requires.
var ErrOrder = errors.New("bdd: replacement does not preserve variable order")

// Config controls the construction of a Kernel.
type Config struct {
	// Vars is the number of boolean variables. A fresh kernel places
	// variable i at level i (the identity order); Reorder and SetOrder can
	// change the placement later.
	Vars int
	// NodeBudget, when positive, bounds the number of live nodes. An
	// operation that needs to allocate past the budget is aborted: it
	// returns Invalid and Kernel.Err reports ErrBudget.
	NodeBudget int
	// CacheSize fixes the number of entries in each operation cache
	// (rounded up to a power of two). Zero selects dynamic sizing: each
	// cache starts small and grows with its own observed demand (the apply
	// cache with the node table, the quantification and replacement caches
	// with their lookup counts), up to per-cache maxima — small kernels
	// stay cheap to create, large workloads still get large caches.
	CacheSize int
	// DebugChecks enables runtime validation of every Ref entering a kernel
	// operation: out-of-table handles (a Ref minted by a different kernel)
	// and handles to GC-freed nodes (a missing Protect/TempKeep pin) panic
	// at the operation boundary instead of silently denoting an unrelated
	// node. See also SetDebugChecks. The mode costs a few comparisons per
	// operation; it is meant for tests and soak runs, not production paths.
	DebugChecks bool
}

// Kernel owns a shared node table and the operation caches. All Refs handed
// out by a Kernel remain valid while they are pinned (see Protect) or
// reachable from a pinned Ref; unpinned, unreachable nodes may be reclaimed
// by garbage collection between operations. Reordering (see reorder.go)
// also preserves pinned Refs: a node keeps its index while its function is
// rewritten in place.
//
// The node table is struct-of-arrays: the level, low, high, chain and pin
// fields of node i live in five parallel slices instead of one 20-byte
// struct. The hot makeNode/apply recursion touches level/low/high of many
// nodes but next only on hash probes and refs almost never, so splitting
// the arrays keeps the traversed fields dense in cache.
type Kernel struct {
	// node table, struct-of-arrays; index 0 and 1 are the terminals
	level []uint32 // variable level; terminalLevel for True/False, freedLevel for free slots
	low   []Ref    // 0-successor
	high  []Ref    // 1-successor
	next  []int32  // unique-table hash chain; -1 terminates; free-list link for freed slots
	refs  []int32  // external pin count; nodes with refs>0 are GC roots

	buckets []int32 // unique table heads, len is a power of two
	free    int32   // head of free list threaded through next; -1 empty
	live    int     // number of live (non-free) nodes, including terminals
	numVars int

	// level↔variable permutation; identity until a reorder changes it
	var2level []uint32 // var2level[v] is the level of variable v
	level2var []uint32 // level2var[l] is the variable at level l

	budget      int
	gcTrigger   int // run GC when live exceeds this at an operation boundary
	err         error
	debugChecks bool // validate Refs at operation boundaries (Config.DebugChecks)

	applyCache   []applyEntry
	quantCache   []quantEntry
	replaceCache []replaceEntry
	applyMask    uint32
	quantMask    uint32
	replaceMask  uint32
	cacheEpoch   uint32 // entries from older epochs are invalid (cheap GC-time flush)
	maxCache     int    // the apply cache stops doubling at this size
	fixedCache   bool   // Config.CacheSize pinned all three cache sizes
	tempRoots    []Ref  // GC roots for in-flight computations (TempKeep)

	// Restrict's memo: restrictMemo[g] is the running call's result for node
	// g iff bit g of restrictSeen is set. Both grow to the largest Ref a call
	// has visited — the index being restricted, not the whole table — and
	// are kept across calls; starting a call clears the bitmap only.
	restrictMemo []Ref
	restrictSeen []uint64

	replaceMaps []replaceMap // interned variable substitutions
	groups      [][]int      // variable groups that sift as units (reorder.go)

	// statistics
	gcCount        int
	appliedCount   uint64
	allocCount     uint64 // nodes allocated, monotonic (GC never lowers it)
	peak           int    // largest live ever observed
	applyLookups   uint64
	applyHits      uint64
	quantLookups   uint64
	quantHits      uint64
	replaceLookups uint64
	replaceHits    uint64
	reorderRuns    int
	reorderSaved   uint64 // cumulative live-node drop across reorders
}

type applyEntry struct {
	f, g, res Ref
	op        uint32
	epoch     uint32
}

type quantEntry struct {
	f, g, cube, res Ref
	op              uint32
	epoch           uint32
}

type replaceEntry struct {
	f, res Ref
	mapID  int32
	epoch  uint32
}

type replaceMap struct {
	// pairs holds the registered variable substitution (source variable,
	// target variable); the level-indexed form below is derived from it and
	// rebuilt whenever the variable order or count changes.
	pairs [][2]int
	// dense per-level target level; identity where unchanged
	target []uint32
	// lastLevel is the largest level that is remapped; recursion can stop
	// once the current level exceeds it.
	lastLevel uint32
	// valid is false when the current variable order breaks the map's
	// monotonicity, making a single linear pass impossible; Replace then
	// reports ErrOrder.
	valid bool
}

const (
	opAnd uint32 = iota + 1
	opOr
	opXor
	opDiff // f ∧ ¬g
	opImp  // ¬f ∨ g
	opBiimp
	opNot
	opExists
	opForall
	opAppEx  // ∃cube (f ∧ g)
	opAppAll // ∀cube (f ∨ g)
)

const (
	defaultMaxCacheSize   = 1 << 18
	initialCacheSize      = 1 << 12
	initialSmallCacheSize = 1 << 10
	initialNodes          = 1 << 12
	minBuckets            = 1 << 10
)

// New creates a Kernel with cfg.Vars boolean variables.
func New(cfg Config) *Kernel {
	if cfg.Vars < 0 {
		panic("bdd: negative variable count")
	}
	applySize := initialCacheSize
	smallSize := initialSmallCacheSize
	maxCache := defaultMaxCacheSize
	fixed := false
	if cfg.CacheSize > 0 {
		applySize = ceilPow2(cfg.CacheSize)
		smallSize = applySize
		maxCache = applySize
		fixed = true
	}
	k := &Kernel{
		numVars:      cfg.Vars,
		budget:       cfg.NodeBudget,
		debugChecks:  cfg.DebugChecks,
		applyCache:   make([]applyEntry, applySize),
		quantCache:   make([]quantEntry, smallSize),
		replaceCache: make([]replaceEntry, smallSize),
		applyMask:    uint32(applySize - 1),
		quantMask:    uint32(smallSize - 1),
		replaceMask:  uint32(smallSize - 1),
		maxCache:     maxCache,
		fixedCache:   fixed,
		free:         -1,
	}
	k.level = append(make([]uint32, 0, initialNodes), terminalLevel, terminalLevel)
	k.low = append(make([]Ref, 0, initialNodes), False, False)
	k.high = append(make([]Ref, 0, initialNodes), True, True)
	k.next = append(make([]int32, 0, initialNodes), -1, -1)
	k.refs = append(make([]int32, 0, initialNodes), 1, 1) // terminals are permanently pinned
	k.live = 2
	k.peak = 2
	k.buckets = make([]int32, minBuckets)
	for i := range k.buckets {
		k.buckets[i] = -1
	}
	k.var2level = make([]uint32, cfg.Vars)
	k.level2var = make([]uint32, cfg.Vars)
	for i := 0; i < cfg.Vars; i++ {
		k.var2level[i] = uint32(i)
		k.level2var[i] = uint32(i)
	}
	k.resetGCTrigger()
	k.cacheEpoch = 1 // zero-valued entries never match
	return k
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func (k *Kernel) resetGCTrigger() {
	// Collections clear the operation caches, so collecting too eagerly
	// costs recomputation: let the table double (plus a constant, so a small
	// kernel is left alone) before collecting again. The trigger follows the
	// live set, not the budget — the node table never shrinks, so garbage a
	// kernel is allowed to pile up is memory it keeps for good.
	k.gcTrigger = k.live*2 + 65536
	if k.budget > 0 && k.gcTrigger > k.budget {
		k.gcTrigger = k.budget
	}
}

// NumVars returns the number of boolean variables in the kernel.
func (k *Kernel) NumVars() int { return k.numVars }

// AddVars appends n fresh variables at the bottom of the variable order and
// returns the index of the first. Existing Refs are unaffected: the new
// variables order after every existing one. The finite-domain layer uses
// this to allocate variable blocks on demand as indices are created.
func (k *Kernel) AddVars(n int) int {
	if n < 0 {
		panic("bdd: negative variable count")
	}
	base := k.numVars
	k.numVars += n
	for i := base; i < k.numVars; i++ {
		k.var2level = append(k.var2level, uint32(i))
		k.level2var = append(k.level2var, uint32(i))
	}
	for i := range k.replaceMaps {
		k.rebuildReplaceMap(&k.replaceMaps[i])
	}
	return base
}

// Err returns the sticky error state of the kernel: nil, or ErrBudget after
// an aborted operation. The error must be cleared with ClearErr before the
// kernel accepts further work.
func (k *Kernel) Err() error { return k.err }

// ClearErr resets the sticky error state so the kernel can be used again
// (typically after the caller has fallen back to SQL evaluation). Any
// Invalid refs obtained from aborted operations remain invalid.
func (k *Kernel) ClearErr() { k.err = nil }

// Size returns the number of live nodes in the shared table, including the
// two terminals.
func (k *Kernel) Size() int { return k.live }

// GCCount returns how many garbage collections have run.
func (k *Kernel) GCCount() int { return k.gcCount }

// OpCount returns the number of recursive apply steps executed. It is a
// cheap proxy for work performed, used by benchmarks.
func (k *Kernel) OpCount() uint64 { return k.appliedCount }

// CacheHits returns the number of operation-cache hits across all three
// caches.
func (k *Kernel) CacheHits() uint64 { return k.applyHits + k.quantHits + k.replaceHits }

// Level returns the level (position in the current variable order, 0 at the
// top) of node f, or NumVars() for the terminals. Use VarOf for the boolean
// variable f tests; the two coincide only under the identity order.
func (k *Kernel) Level(f Ref) int {
	if k.isTerminal(f) {
		return k.numVars
	}
	return int(k.level[f])
}

// VarOf returns the boolean variable tested by node f, or NumVars() for the
// terminals.
func (k *Kernel) VarOf(f Ref) int {
	if k.isTerminal(f) {
		return k.numVars
	}
	return int(k.level2var[k.level[f]])
}

// LevelOfVar returns the level at which variable v is currently placed.
func (k *Kernel) LevelOfVar(v int) int {
	k.checkVar(v)
	return int(k.var2level[v])
}

// VarAtLevel returns the variable currently placed at the given level.
func (k *Kernel) VarAtLevel(level int) int {
	if level < 0 || level >= k.numVars {
		panic(fmt.Sprintf("bdd: level %d out of range [0,%d)", level, k.numVars))
	}
	return int(k.level2var[level])
}

// VarOrder returns the current variable order as a fresh slice: entry l is
// the variable placed at level l.
func (k *Kernel) VarOrder() []int {
	out := make([]int, k.numVars)
	for l, v := range k.level2var {
		out[l] = int(v)
	}
	return out
}

// Low returns the 0-successor of f. f must not be a terminal.
func (k *Kernel) Low(f Ref) Ref { return k.low[f] }

// High returns the 1-successor of f. f must not be a terminal.
func (k *Kernel) High(f Ref) Ref { return k.high[f] }

func (k *Kernel) isTerminal(f Ref) bool { return f == False || f == True }

// IsTerminal reports whether f is one of the constant functions.
func (k *Kernel) IsTerminal(f Ref) bool { return k.isTerminal(f) }

// Var returns the BDD of the single-variable function x_i.
func (k *Kernel) Var(i int) Ref {
	k.checkVar(i)
	return k.makeNode(k.var2level[i], False, True)
}

// NVar returns the BDD of the negated single-variable function ¬x_i.
func (k *Kernel) NVar(i int) Ref {
	k.checkVar(i)
	return k.makeNode(k.var2level[i], True, False)
}

func (k *Kernel) checkVar(i int) {
	if i < 0 || i >= k.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", i, k.numVars))
	}
}

// TempMark returns the current depth of the temporary-root stack, for a
// later TempRelease. cmd/cvlint's tempmark analyzer verifies statically
// that every TempMark is released on all exit paths.
func (k *Kernel) TempMark() int { return len(k.tempRoots) }

// TempKeep pushes f onto the temporary-root stack, protecting it from
// garbage collection until the enclosing TempRelease. Computations that
// hold intermediate Refs in local variables across further kernel
// operations (an evaluator accumulating conjuncts, for example) must keep
// them: garbage collection can trigger at any operation boundary, and only
// pinned nodes, temp roots and the current operation's operands survive.
func (k *Kernel) TempKeep(f Ref) Ref {
	if f > True {
		if k.debugChecks {
			k.checkRef(f)
		}
		k.tempRoots = append(k.tempRoots, f)
	}
	return f
}

// TempRelease pops the temporary-root stack down to a mark previously
// returned by TempMark.
func (k *Kernel) TempRelease(mark int) {
	if mark < 0 || mark > len(k.tempRoots) {
		panic("bdd: invalid TempRelease mark")
	}
	k.tempRoots = k.tempRoots[:mark]
}

// Protect pins f (and, transitively, everything reachable from it) against
// garbage collection. Each Protect must be balanced by an Unprotect. Refs
// that are only held in caller data structures across unrelated kernel
// operations must be protected; operands and results of the current
// operation are safe without pinning, and short-lived intermediates should
// use TempKeep/TempRelease. cmd/cvlint's tempmark analyzer flags pins that
// are neither unprotected locally nor handed to a longer-lived owner.
func (k *Kernel) Protect(f Ref) Ref {
	if f > True { // terminals and Invalid need no pinning
		if k.debugChecks {
			k.checkRef(f)
		}
		k.refs[f]++
	}
	return f
}

// Unprotect releases one pin previously placed by Protect.
func (k *Kernel) Unprotect(f Ref) {
	if f > True {
		if k.refs[f] == 0 {
			panic("bdd: unbalanced Unprotect")
		}
		k.refs[f]--
	}
}

// MakeNode returns the canonical node testing variable v with the given
// cofactors. Both cofactors must be terminals or nodes at strictly greater
// levels; MakeNode panics otherwise, because a violation would silently
// break canonicity. It exists for bulk constructions (the finite-domain
// layer's sorted-tuple relation builder) that assemble BDDs bottom-up
// without going through apply.
func (k *Kernel) MakeNode(v uint32, low, high Ref) Ref {
	if int(v) >= k.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", v, k.numVars))
	}
	if low == Invalid || high == Invalid {
		return Invalid
	}
	level := k.var2level[v]
	if uint32(k.Level(low)) <= level || uint32(k.Level(high)) <= level {
		panic("bdd: MakeNode cofactor level violates the variable order")
	}
	return k.makeNode(level, low, high)
}

// makeNode returns the canonical node (level, low, high), interning it if
// necessary. It implements both ROBDD reduction rules: redundant tests
// (low == high) are skipped and isomorphic nodes are shared.
func (k *Kernel) makeNode(level uint32, low, high Ref) Ref {
	if low == high {
		return low
	}
	if low == Invalid || high == Invalid {
		return Invalid
	}
	h := nodeHash(level, low, high) & uint32(len(k.buckets)-1)
	for i := k.buckets[h]; i >= 0; i = k.next[i] {
		if k.level[i] == level && k.low[i] == low && k.high[i] == high {
			return Ref(i)
		}
	}
	if k.budget > 0 && k.live >= k.budget {
		k.err = ErrBudget
		return Invalid
	}
	var idx int32
	if k.free >= 0 {
		idx = k.free
		k.free = k.next[idx]
		k.level[idx], k.low[idx], k.high[idx] = level, low, high
		k.refs[idx] = 0
	} else {
		k.level = append(k.level, level)
		k.low = append(k.low, low)
		k.high = append(k.high, high)
		k.next = append(k.next, 0)
		k.refs = append(k.refs, 0)
		idx = int32(len(k.level) - 1)
	}
	k.next[idx] = k.buckets[h]
	k.buckets[h] = idx
	k.live++
	k.allocCount++
	if k.live > k.peak {
		k.peak = k.live
	}
	if k.live > len(k.buckets)*3/4 {
		k.growBuckets()
	}
	if !k.fixedCache && k.live > len(k.applyCache) && len(k.applyCache) < k.maxCache {
		k.growApplyCache()
	}
	return Ref(idx)
}

// growApplyCache doubles the apply cache. It may run in the middle of an
// operation; entry pointers into the old array then write stale memory,
// which only loses those cache entries. The quantification and replacement
// caches grow on their own lookup demand (see quant.go, replace.go).
func (k *Kernel) growApplyCache() {
	size := len(k.applyCache) * 2
	k.applyCache = make([]applyEntry, size)
	k.applyMask = uint32(size - 1)
}

func nodeHash(level uint32, low, high Ref) uint32 {
	h := level*0x9e3779b9 ^ uint32(low)*0x85ebca6b ^ uint32(high)*0xc2b2ae35
	h ^= h >> 15
	h *= 0x27d4eb2f
	h ^= h >> 13
	return h
}

func (k *Kernel) growBuckets() {
	nb := make([]int32, len(k.buckets)*2)
	for i := range nb {
		nb[i] = -1
	}
	mask := uint32(len(nb) - 1)
	// Re-thread every live node by walking the existing chains (the free
	// list stays untouched: it is threaded through next but never reachable
	// from a bucket head).
	for _, head := range k.buckets {
		for i := head; i >= 0; {
			nxt := k.next[i]
			h := nodeHash(k.level[i], k.low[i], k.high[i]) & mask
			k.next[i] = nb[h]
			nb[h] = i
			i = nxt
		}
	}
	k.buckets = nb
}

// clearCaches invalidates every operation-cache entry by advancing the
// epoch; entries are validated against the current epoch on lookup, so the
// flush is O(1) instead of rewriting megabytes of cache memory.
func (k *Kernel) clearCaches() {
	k.cacheEpoch++
}

// ClearCaches drops every operation-cache entry (O(1): it advances the
// cache epoch). Results are unaffected — only memoization is lost, so the
// next operations pay full cost. Benchmarks use it to measure the
// cold-cache regime a freshly replicated kernel is in right after adopting
// a new version.
func (k *Kernel) ClearCaches() {
	k.clearCaches()
}

// gcIfNeeded runs a mark-and-sweep collection when the table has grown past
// the trigger. It is called only at operation boundaries; roots are the
// pinned nodes plus the operands of the pending operation. Under DebugChecks
// it doubles as the Ref-liveness checkpoint: every operand is validated
// before it can be marked as a root or recursed into.
func (k *Kernel) gcIfNeeded(operands ...Ref) {
	if k.debugChecks {
		for _, f := range operands {
			k.checkRef(f)
		}
	}
	if k.live < k.gcTrigger {
		return
	}
	k.GC(operands...)
}

// SetDebugChecks switches runtime Ref validation (see Config.DebugChecks) on
// or off. Freed slots carry the freedLevel stamp at all times, so handles
// freed before the switch are caught too.
func (k *Kernel) SetDebugChecks(on bool) {
	k.debugChecks = on
}

// DebugChecks reports whether runtime Ref validation is on, so that a kernel
// derived from this one (a replica's) can be put in the same mode.
func (k *Kernel) DebugChecks() bool { return k.debugChecks }

// checkRef panics when f cannot be a live handle of this kernel. Invalid is
// permitted: it is the documented abort value and propagates through every
// operation by design.
func (k *Kernel) checkRef(f Ref) {
	if f == Invalid {
		return
	}
	if f < 0 || int(f) >= len(k.level) {
		panic(fmt.Sprintf("bdd: Ref %d outside the node table (len %d); was it minted by a different kernel?", f, len(k.level)))
	}
	if k.level[f] == freedLevel {
		panic(fmt.Sprintf("bdd: Ref %d names a node reclaimed by GC; missing Protect or TempKeep pin?", f))
	}
}
