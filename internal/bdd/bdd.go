// Package bdd implements Reduced Ordered Binary Decision Diagrams (ROBDDs)
// with a shared unique-node table, memoized boolean operations, variable
// quantification, combined apply-quantify operations (the analogues of
// BuDDy's bdd_appex and bdd_appall), variable replacement, garbage
// collection with external reference pinning, and a configurable node budget
// that aborts operations whose intermediate results explode.
//
// No kernel operation collects. A kernel collects only at a safe point —
// SafePoint, or an explicit GC — where its owner holds nothing it has not
// pinned with Protect; between safe points every Ref stays valid.
//
// The package is a from-scratch substitute for the BuDDy C library used by
// the paper "Fast Identification of Relational Constraint Violations"
// (ICDE 2007). Node canonicity (Bryant 1986) is maintained at all times:
// two logically equivalent functions built in the same Kernel always receive
// the same Ref, so validity and satisfiability tests are O(1) comparisons
// against True and False.
//
// A variable is its level: variable i sits at position i of the diagram
// (level 0 at the top), so the order is the order in which the variables
// were allocated. The paper fixes that order when an index is built, with
// its ordering heuristics (§3), and never reorders at run time (§2.2); the
// finite-domain layer allocates blocks in the order those heuristics chose.
//
// Kernels are not safe for concurrent use; callers that share a Kernel
// across goroutines must serialize access.
//
// Several usage contracts of this API are not expressible in Go's type
// system. Refs must stay with the Kernel that minted them:
// Config.DebugChecks validates that at run time, and a bdd.Image, which
// carries no Ref, is the only way to move a BDD between kernels. Every pin
// must have an owner: under DebugChecks a core.Checker compares the kernel's
// pins with its owners' Refs at each safe point (CheckPins). The sentinel
// errors below may arrive wrapped (sentinelcmp); the lint suite in
// internal/analysis checks that statically. The sticky Err must be consulted
// at the end of an allocation chain; core's budget sweep test checks that at
// run time. See DESIGN.md, section "Static contracts".
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
// recognizable: garbage collection relies on the stamp to tell live slots
// from reclaimed ones, and DebugChecks uses it to catch a
// stale Ref dereferencing a freed slot. It can never collide with a real
// level or with terminalLevel. makeNode overwrites the stamp when the slot
// is reused.
const freedLevel = math.MaxUint32 - 1

// ErrBudget is reported by Kernel.Err when an operation would have grown the
// node table past the configured node budget. The paper's query-processing
// strategy treats this as the signal to abandon BDD evaluation and fall back
// to SQL processing.
var ErrBudget = errors.New("bdd: node budget exceeded")

// Config controls the construction of a Kernel.
type Config struct {
	// Vars is the number of boolean variables; variable i sits at level i.
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
	// and handles to GC-freed nodes (a missing Protect pin) panic at the
	// operation boundary instead of silently denoting an unrelated node.
	// Every SafePoint then collects, so a missing pin surfaces at the next
	// operation. See also SetDebugChecks. The mode is meant for tests and
	// soak runs, not production paths.
	DebugChecks bool
}

// Kernel owns a shared node table and the operation caches. All Refs handed
// out by a Kernel remain valid until the next collection, and across it while
// they are pinned (see Protect) or reachable from a pinned Ref; collections
// happen only at SafePoint and GC.
//
// The node table is struct-of-arrays: the level, low, high, chain and pin
// fields of node i live in five parallel slices instead of one 20-byte
// struct. The hot makeNode/apply recursion touches level/low/high of many
// nodes but next only on hash probes and refs almost never, so splitting
// the arrays keeps the traversed fields dense in cache.
type Kernel struct {
	// node table, struct-of-arrays; index 0 and 1 are the terminals
	level []uint32 // tested variable, which is its level; terminalLevel for True/False, freedLevel for free slots
	low   []Ref    // 0-successor
	high  []Ref    // 1-successor
	next  []int32  // unique-table hash chain; -1 terminates; free-list link for freed slots
	refs  []int32  // external pin count; nodes with refs>0 are GC roots

	buckets []int32 // unique table heads, len is a power of two
	free    int32   // head of free list threaded through next; -1 empty
	live    int     // number of live (non-free) nodes, including terminals
	numVars int

	budget      int
	gcBase      int // live after the last collection: what the trigger follows
	gcTrigger   int // SafePoint collects once live reaches this
	err         error
	debugChecks bool // validate Refs at operation boundaries (Config.DebugChecks)

	applyCache   []applyEntry
	quantCache   []quantEntry
	replaceCache []replaceEntry
	applyMask    uint32
	quantMask    uint32
	replaceMask  uint32
	cacheEpoch   uint32 // entries from older epochs are invalid (O(1) flush, see ClearCaches)
	maxCache     int    // the apply cache stops doubling at this size
	fixedCache   bool   // Config.CacheSize pinned all three cache sizes

	// Restrict's memo: restrictMemo[g] is the running call's result for node
	// g iff bit g of restrictSeen is set. Both grow to the largest Ref a call
	// has visited — the index being restricted, not the whole table — and
	// are kept across calls; starting a call clears the bitmap only.
	restrictMemo []Ref
	restrictSeen []uint64

	replaceMaps []replaceMap // interned variable substitutions

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
	// target[v] is the variable v is renamed to; identity where unchanged,
	// and variables added after the map are past its end
	target []uint32
	// lastLevel is the largest variable that is remapped; recursion can stop
	// once the current level exceeds it.
	lastLevel uint32
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
	k.gcBase = 2
	k.buckets = make([]int32, minBuckets)
	for i := range k.buckets {
		k.buckets[i] = -1
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
	// A collection walks the whole table and all three caches, and what the
	// caches keep alive counts as live: let the table double (plus a
	// constant, so a small kernel is left alone) before collecting again. The
	// trigger follows the live set after the last collection, not the budget
	// and not the garbage since — the node table never shrinks, so garbage a
	// kernel is allowed to pile up is memory it keeps for good.
	k.gcTrigger = k.gcBase*2 + 65536
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

// CacheHits returns the number of operation-cache hits across all three
// caches.
func (k *Kernel) CacheHits() uint64 { return k.applyHits + k.quantHits + k.replaceHits }

// VarOf returns the boolean variable tested by node f, which is also its
// level, or NumVars() for the terminals.
func (k *Kernel) VarOf(f Ref) int {
	if k.isTerminal(f) {
		return k.numVars
	}
	return int(k.level[f])
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
	return k.makeNode(uint32(i), False, True)
}

// NVar returns the BDD of the negated single-variable function ¬x_i.
func (k *Kernel) NVar(i int) Ref {
	k.checkVar(i)
	return k.makeNode(uint32(i), True, False)
}

func (k *Kernel) checkVar(i int) {
	if i < 0 || i >= k.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", i, k.numVars))
	}
}

// Protect pins f (and, transitively, everything reachable from it) against
// garbage collection. Each Protect must be balanced by an Unprotect. A Ref
// held across a safe point (SafePoint, GC) must be protected; between safe
// points nothing needs pinning.
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
// cofactors. Both cofactors must be terminals or nodes testing strictly
// greater variables; MakeNode panics otherwise, because a violation would
// silently break canonicity. It exists for bulk constructions (the
// finite-domain layer's sorted-tuple relation builder) that assemble BDDs
// bottom-up without going through apply.
func (k *Kernel) MakeNode(v uint32, low, high Ref) Ref {
	if int(v) >= k.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", v, k.numVars))
	}
	if low == Invalid || high == Invalid {
		return Invalid
	}
	if uint32(k.VarOf(low)) <= v || uint32(k.VarOf(high)) <= v {
		panic("bdd: MakeNode cofactor level violates the variable order")
	}
	return k.makeNode(v, low, high)
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
		k.growBuckets(2 * len(k.buckets))
	}
	if !k.fixedCache && k.live > len(k.applyCache) && len(k.applyCache) < k.maxCache {
		k.growApplyCache()
	}
	return Ref(idx)
}

// node returns the function "if v then high else low". When v is above both
// children that is the canonical node, interned by makeNode; otherwise — a
// rename that moved v below a child's variable — it is rebuilt as
// ITE(Var(v), high, low), which restores the order. Replace builds every
// node through it.
func (k *Kernel) node(v uint32, low, high Ref) Ref {
	if low == Invalid || high == Invalid {
		return Invalid
	}
	if v < k.level[low] && v < k.level[high] {
		return k.makeNode(v, low, high)
	}
	return k.ITE(k.Var(int(v)), high, low)
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

// reserve makes room for n nodes in one step each: node-table slots, and
// unique-table buckets for n live nodes under ¾ load. A bulk load that knows
// its size calls it instead of growing both tables by doubling on the way.
func (k *Kernel) reserve(n int) {
	if n > cap(k.level) {
		k.level = withCap(k.level, n)
		k.low = withCap(k.low, n)
		k.high = withCap(k.high, n)
		k.next = withCap(k.next, n)
		k.refs = withCap(k.refs, n)
	}
	size := len(k.buckets)
	for n > size*3/4 {
		size *= 2
	}
	if size > len(k.buckets) {
		k.growBuckets(size)
	}
}

// withCap returns a copy of s with capacity n, in one allocation.
func withCap[T any](s []T, n int) []T { return append(make([]T, 0, n), s...) }

// growBuckets rebuilds the unique table with size buckets, a power of two.
func (k *Kernel) growBuckets(size int) {
	nb := make([]int32, size)
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

// ClearCaches drops every operation-cache entry. Entries are validated
// against the current epoch on lookup, so advancing it is an O(1) flush
// instead of rewriting megabytes of cache memory. Results are unaffected —
// only memoization is lost, so the next operations pay full cost, and the
// next GC keeps nothing the caches knew about. A timed cold start calls
// ClearCaches and then GC.
func (k *Kernel) ClearCaches() {
	k.cacheEpoch++
}

// checkOperands is the Ref-liveness checkpoint of DebugChecks: every
// operand of an operation is validated before it is recursed into.
func (k *Kernel) checkOperands(operands ...Ref) {
	if k.debugChecks {
		for _, f := range operands {
			k.checkRef(f)
		}
	}
}

// SetDebugChecks switches runtime Ref validation (see Config.DebugChecks) on
// or off. Freed slots carry the freedLevel stamp at all times, so handles
// freed before the switch are caught too.
func (k *Kernel) SetDebugChecks(on bool) { k.debugChecks = on }

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
		panic(fmt.Sprintf("bdd: Ref %d names a node reclaimed by GC; missing Protect pin?", f))
	}
}
