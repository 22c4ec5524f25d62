package bdd

import (
	"fmt"
	"sort"
)

// reorder.go implements dynamic variable reordering: Rudell-style sifting
// built on an in-place adjacent-level swap over the unique table. The paper
// fixes its variable ordering at index-build time; long-lived indices under
// skewed update streams drift arbitrarily far from that ordering, so the
// service layer triggers Reorder between update batches when the node table
// has grown past a multiple of its post-GC baseline.
//
// The central property of the swap is that it preserves Ref identity: a
// node that existed before the swap and still encodes a function afterwards
// keeps its table index, with its fields rewritten in place. External pins
// (Protect), temporary roots (TempKeep) and every node reachable from them
// therefore stay valid across a Reorder — like GC, reordering is an
// operation-boundary event. Unlike GC it invalidates the operation caches,
// and it may reclaim unpinned, unreachable nodes (Reorder clears the caches,
// then collects, so every live node is reachable from a root and reference
// counts are exact).
//
// Group sifting: variable groups registered with Group (the fdd layer
// registers every finite-domain block) move as indivisible units, so the
// within-block bit order that LessConst and the relation builders rely on
// is never disturbed — only whole blocks change their relative positions.

// siftMaxGrowth bounds the transient node-table growth while sifting one
// block: the walk down or up the order stops once live nodes exceed
// siftMaxGrowth × the count at the start of that block's sift.
const siftMaxGrowth = 1.2

// ReorderStats reports what a Reorder run did.
type ReorderStats struct {
	// Before and After are the live node counts around the run (Before is
	// taken after the initial garbage collection, so the difference is
	// attributable to reordering, not to reclaiming garbage).
	Before, After int
	// Swaps is the number of adjacent-level swaps performed.
	Swaps int
	// Blocks is the number of blocks sifted.
	Blocks int
}

// Group declares that the given variables must stay adjacent and in their
// current relative order during reordering: sifting moves the whole group
// as a unit. Groups that overlap (interleaved finite-domain clusters) are
// merged into one sifting block. Registering a group never changes the
// current order.
func (k *Kernel) Group(vars ...int) {
	if len(vars) == 0 {
		return
	}
	g := make([]int, 0, len(vars))
	seen := make(map[int]bool, len(vars))
	for _, v := range vars {
		k.checkVar(v)
		if !seen[v] {
			seen[v] = true
			g = append(g, v)
		}
	}
	k.groups = append(k.groups, g)
}

// Groups returns a copy of the registered variable groups.
func (k *Kernel) Groups() [][]int {
	out := make([][]int, len(k.groups))
	for i, g := range k.groups {
		out[i] = append([]int(nil), g...)
	}
	return out
}

// Reorder runs group sifting over the node table and returns what it did.
// Unpinned, unreachable nodes are reclaimed first (as by GC); every pinned
// or reachable Ref remains valid and keeps its function. The operation
// caches are invalidated and interned ReplaceMaps are re-derived for the
// new order (a map whose monotonicity the new order breaks stays interned
// but reports ErrOrder from Replace until a compatible order returns).
func (k *Kernel) Reorder() ReorderStats {
	if k.err != nil || k.numVars < 2 {
		return ReorderStats{Before: k.live, After: k.live}
	}
	k.ClearCaches() // the sift rewrites the nodes they name; GC then keeps the roots alone
	k.GC()
	before := k.live
	s := newReorderSession(k)
	blocks := s.buildBlocks()
	// Sift the most populous blocks first: they are where the savings are.
	type blockPop struct{ id, pop int }
	pops := make([]blockPop, 0, len(blocks))
	for _, b := range blocks {
		pop := 0
		for l := b.start; l < b.start+b.n; l++ {
			pop += len(s.gather(l))
		}
		if pop > 0 {
			pops = append(pops, blockPop{id: b.id, pop: pop})
		}
	}
	sort.Slice(pops, func(i, j int) bool { return pops[i].pop > pops[j].pop })
	for _, bp := range pops {
		s.siftBlock(blocks, findBlock(blocks, bp.id))
	}
	k.finishReorder(before - k.live)
	return ReorderStats{Before: before, After: k.live, Swaps: s.swaps, Blocks: len(pops)}
}

// SetOrder moves the variables into the exact given order: order[l] is the
// variable to place at level l, and order must be a permutation of the
// kernel's variables. Group constraints are not consulted — SetOrder is the
// deterministic tool for tests, experiments and order replay, and callers
// own the consequences for their finite-domain blocks. Like Reorder it
// collects garbage first and preserves every pinned or reachable Ref.
func (k *Kernel) SetOrder(order []int) error {
	if k.err != nil {
		return k.err
	}
	if len(order) != k.numVars {
		return fmt.Errorf("bdd: SetOrder needs %d variables, got %d", k.numVars, len(order))
	}
	seen := make([]bool, k.numVars)
	for _, v := range order {
		if v < 0 || v >= k.numVars || seen[v] {
			return fmt.Errorf("bdd: SetOrder argument is not a permutation of the variables")
		}
		seen[v] = true
	}
	k.ClearCaches()
	k.GC()
	before := k.live
	s := newReorderSession(k)
	for l := 0; l < k.numVars; l++ {
		// Bubble the wanted variable up to level l; levels above l already
		// hold their final variables and are not disturbed.
		for j := int(k.var2level[order[l]]); j > l; j-- {
			s.swapLevels(j - 1)
		}
	}
	k.finishReorder(before - k.live)
	return nil
}

// finishReorder restores the kernel's derived state after the permutation
// changed: level-indexed replacement tables, the GC trigger, and the reorder
// counters. The operation caches were cleared before the opening
// collection and the sift adds no entries.
func (k *Kernel) finishReorder(saved int) {
	for i := range k.replaceMaps {
		k.rebuildReplaceMap(&k.replaceMaps[i])
	}
	k.resetGCTrigger()
	k.reorderRuns++
	if saved > 0 {
		k.reorderSaved += uint64(saved)
	}
}

// ReorderRuns returns how many reordering runs (Reorder or SetOrder) have
// completed.
func (k *Kernel) ReorderRuns() int { return k.reorderRuns }

// reorderSession carries the bookkeeping that only exists while a reorder
// runs: per-node reference counts (parent edges + external pins + temp
// roots), per-level node lists, and a generation-stamped visited set for
// filtering those lists lazily.
type reorderSession struct {
	k        *Kernel
	rc       []int32   // reference counts; rc==0 ⇒ the node is dead
	byLevel  [][]int32 // node indices per level; may hold stale/duplicate entries
	stamp    []int32   // last gather generation that saw the node
	stampGen int32
	swaps    int
}

// newReorderSession snapshots the live graph. The caller must have cleared
// the caches and run GC immediately before, so every table slot is either
// live or freedLevel-stamped and every live node is reachable from a pin or
// temp root (not merely from an operation-cache entry).
func newReorderSession(k *Kernel) *reorderSession {
	n := len(k.level)
	s := &reorderSession{
		k:       k,
		rc:      make([]int32, n),
		stamp:   make([]int32, n),
		byLevel: make([][]int32, k.numVars),
	}
	for i := 2; i < n; i++ {
		if k.level[i] == freedLevel {
			continue
		}
		s.byLevel[k.level[i]] = append(s.byLevel[k.level[i]], int32(i))
		s.rc[k.low[i]]++
		s.rc[k.high[i]]++
		s.rc[i] += k.refs[i]
	}
	for _, r := range k.tempRoots {
		if r > True {
			s.rc[r]++
		}
	}
	return s
}

// gather returns the live nodes currently at level l, compacting the
// level's list in place: entries whose slot has moved to another level (or
// was freed and reused) and duplicates from slot reuse are dropped.
func (s *reorderSession) gather(l int) []int32 {
	s.stampGen++
	k := s.k
	list := s.byLevel[l][:0]
	for _, i := range s.byLevel[l] {
		if k.level[i] == uint32(l) && s.stamp[i] != s.stampGen {
			s.stamp[i] = s.stampGen
			list = append(list, i)
		}
	}
	s.byLevel[l] = list
	return list
}

// swapLevels exchanges levels l and l+1 in place. Writing A for the
// variable at level l and B for the one at l+1:
//
//   - B-nodes keep their children (all strictly below l+1) and are simply
//     relabeled to level l.
//   - A-nodes without a B-child (I-nodes) are independent of B and are
//     relabeled to l+1.
//   - A-nodes with a B-child (D-nodes) are rewritten in place at level l —
//     now testing B — with fresh (or shared) children at level l+1 built
//     from the four quadrant cofactors. The rewritten node keeps its index,
//     which is what preserves external Refs.
//
// Children that lose their last reference are reclaimed immediately so the
// live counter steers the sifting heuristic accurately.
func (s *reorderSession) swapLevels(l int) {
	k := s.k
	upper := s.gather(l)
	lower := s.gather(l + 1)
	ll := uint32(l)
	for _, i := range upper {
		k.unlinkNode(i)
	}
	for _, i := range lower {
		k.unlinkNode(i)
	}
	for _, i := range lower {
		k.level[i] = ll
		s.relink(i)
	}
	// Pass A: relabel the I-nodes first so the D-node rewrites below can
	// share them through the unique table.
	newUpper := make([]int32, 0, len(upper))
	var dnodes []int32
	for _, i := range upper {
		if k.level[k.low[i]] == ll || k.level[k.high[i]] == ll {
			dnodes = append(dnodes, i)
		} else {
			k.level[i] = ll + 1
			s.relink(i)
			newUpper = append(newUpper, i)
		}
	}
	// Pass B: rewrite the D-nodes.
	for _, x := range dnodes {
		f0, f1 := k.low[x], k.high[x]
		var f00, f01, f10, f11 Ref
		if k.level[f0] == ll {
			f00, f01 = k.low[f0], k.high[f0]
		} else {
			f00, f01 = f0, f0
		}
		if k.level[f1] == ll {
			f10, f11 = k.low[f1], k.high[f1]
		} else {
			f10, f11 = f1, f1
		}
		newLow := s.makeAt(ll+1, f00, f10, &newUpper)
		newHigh := s.makeAt(ll+1, f01, f11, &newUpper)
		if newLow == newHigh {
			// Impossible for a canonical D-node: it would have been
			// redundant before the swap.
			panic("bdd: reorder produced a redundant node")
		}
		// Take the new references before dropping the old ones: newLow or
		// newHigh can be f0 or f1 itself (collapsed quadrants), and the
		// deref cascade must not reclaim it in between.
		s.rc[newLow]++
		s.rc[newHigh]++
		k.low[x] = newLow
		k.high[x] = newHigh
		s.relink(x)
		s.deref(f0)
		s.deref(f1)
	}
	s.byLevel[l] = append(lower, dnodes...)
	s.byLevel[l+1] = newUpper
	va, vb := k.level2var[l], k.level2var[l+1]
	k.level2var[l], k.level2var[l+1] = vb, va
	k.var2level[va], k.var2level[vb] = uint32(l+1), ll
	s.swaps++
}

// makeAt returns the canonical node (level, lo, hi) during a swap, creating
// it if the unique table has none. A created node takes references on its
// children, starts with zero references itself (the caller adds the parent
// edge), and is recorded on list. Unlike makeNode it never consults the
// node budget: an adjacent swap must complete atomically, and the sift
// loop bounds growth between swaps instead.
func (s *reorderSession) makeAt(level uint32, lo, hi Ref, list *[]int32) Ref {
	k := s.k
	if lo == hi {
		return lo
	}
	h := nodeHash(level, lo, hi) & uint32(len(k.buckets)-1)
	for i := k.buckets[h]; i >= 0; i = k.next[i] {
		if k.level[i] == level && k.low[i] == lo && k.high[i] == hi {
			return Ref(i)
		}
	}
	var idx int32
	if k.free >= 0 {
		idx = k.free
		k.free = k.next[idx]
		k.refs[idx] = 0
	} else {
		k.level = append(k.level, 0)
		k.low = append(k.low, 0)
		k.high = append(k.high, 0)
		k.next = append(k.next, 0)
		k.refs = append(k.refs, 0)
		s.rc = append(s.rc, 0)
		s.stamp = append(s.stamp, 0)
		idx = int32(len(k.level) - 1)
	}
	k.level[idx], k.low[idx], k.high[idx] = level, lo, hi
	k.next[idx] = k.buckets[h]
	k.buckets[h] = idx
	k.live++
	k.allocCount++
	if k.live > k.peak {
		k.peak = k.live
	}
	s.rc[lo]++
	s.rc[hi]++
	s.rc[idx] = 0
	*list = append(*list, idx)
	if k.live > len(k.buckets)*3/4 {
		k.growBuckets()
	}
	return Ref(idx)
}

// deref drops one reference from f and reclaims it (and, transitively, its
// children) when none remain. Pinned nodes can never hit zero: their pins
// are part of the count.
func (s *reorderSession) deref(f Ref) {
	k := s.k
	for f > True {
		s.rc[f]--
		if s.rc[f] > 0 {
			return
		}
		k.unlinkNode(int32(f))
		lo, hi := k.low[f], k.high[f]
		k.level[f] = freedLevel
		k.refs[f] = 0
		k.next[f] = k.free
		k.free = int32(f)
		k.live--
		s.deref(lo)
		f = hi
	}
}

// unlinkNode removes node i from its unique-table chain. Must run before
// the node's identity fields change.
func (k *Kernel) unlinkNode(i int32) {
	h := nodeHash(k.level[i], k.low[i], k.high[i]) & uint32(len(k.buckets)-1)
	p := k.buckets[h]
	if p == i {
		k.buckets[h] = k.next[i]
		return
	}
	for k.next[p] != i {
		p = k.next[p]
	}
	k.next[p] = k.next[i]
}

// relink inserts node i into the chain for its current identity fields.
func (s *reorderSession) relink(i int32) {
	k := s.k
	h := nodeHash(k.level[i], k.low[i], k.high[i]) & uint32(len(k.buckets)-1)
	k.next[i] = k.buckets[h]
	k.buckets[h] = i
}

// rblock is a sifting block: a run of adjacent levels that moves as a unit.
type rblock struct {
	id    int
	start int // top level of the block
	n     int // number of levels
}

func findBlock(blocks []rblock, id int) int {
	for i, b := range blocks {
		if b.id == id {
			return i
		}
	}
	panic("bdd: reorder block lost")
}

// buildBlocks maps the registered variable groups onto the current order:
// each group spans the contiguous level interval from its topmost to its
// bottommost variable, overlapping intervals merge (interleaved clusters),
// and levels outside every group become single-level blocks.
func (s *reorderSession) buildBlocks() []rblock {
	k := s.k
	type span struct{ lo, hi int }
	var spans []span
	for _, g := range k.groups {
		sp := span{lo: k.numVars, hi: -1}
		for _, v := range g {
			l := int(k.var2level[v])
			if l < sp.lo {
				sp.lo = l
			}
			if l > sp.hi {
				sp.hi = l
			}
		}
		spans = append(spans, sp)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	merged := spans[:0]
	for _, sp := range spans {
		if n := len(merged); n > 0 && sp.lo <= merged[n-1].hi {
			if sp.hi > merged[n-1].hi {
				merged[n-1].hi = sp.hi
			}
		} else {
			merged = append(merged, sp)
		}
	}
	var blocks []rblock
	level := 0
	mi := 0
	for level < k.numVars {
		if mi < len(merged) && merged[mi].lo == level {
			blocks = append(blocks, rblock{id: len(blocks), start: level, n: merged[mi].hi - merged[mi].lo + 1})
			level = merged[mi].hi + 1
			mi++
		} else {
			blocks = append(blocks, rblock{id: len(blocks), start: level, n: 1})
			level++
		}
	}
	return blocks
}

// swapBlocks exchanges adjacent blocks i and i+1 with adjacent-level swaps,
// preserving the internal level order of both, and updates the block list.
func (s *reorderSession) swapBlocks(blocks []rblock, i int) {
	a, b := blocks[i], blocks[i+1]
	// Move each level of a past all of b, bottom level of a first, so a's
	// internal order is preserved while it sinks below b.
	for x := a.start + a.n - 1; x >= a.start; x-- {
		for j := x; j < x+b.n; j++ {
			s.swapLevels(j)
		}
	}
	blocks[i] = rblock{id: b.id, start: a.start, n: b.n}
	blocks[i+1] = rblock{id: a.id, start: a.start + b.n, n: a.n}
}

// siftBlock walks the block at position pos down to the bottom of the
// order, back up to the top, and finally back to the best position seen,
// Rudell-style. The walk aborts early in either direction once live nodes
// exceed the growth bound; the block still lands on the best position
// visited.
func (s *reorderSession) siftBlock(blocks []rblock, pos int) {
	k := s.k
	bound := int(float64(k.live) * siftMaxGrowth)
	best := k.live
	bestPos := pos
	p := pos
	for p+1 < len(blocks) {
		s.swapBlocks(blocks, p)
		p++
		if k.live < best {
			best = k.live
			bestPos = p
		}
		if k.live > bound {
			break
		}
	}
	for p > 0 {
		s.swapBlocks(blocks, p-1)
		p--
		if k.live < best {
			best = k.live
			bestPos = p
		}
		if k.live > bound {
			break
		}
	}
	for p < bestPos {
		s.swapBlocks(blocks, p)
		p++
	}
	for p > bestPos {
		s.swapBlocks(blocks, p-1)
		p--
	}
}
