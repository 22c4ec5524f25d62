package bdd

import "fmt"

// gc.go holds the collector. It marks from the pins, then treats the
// operation caches as ephemerons: what was memoised about live nodes is still
// true and still wanted, so it stays. The caches are flushed only by an
// explicit ClearCaches. It runs only at safe points: no kernel operation
// collects by itself.

// SafePoint collects when the table has grown past the trigger (see
// resetGCTrigger), and under DebugChecks on every call. The caller declares
// that it holds no Ref it has not pinned with Protect: a kernel's owner calls
// it between operations — core.Checker on the way out of each of its
// operations that run kernel work.
func (k *Kernel) SafePoint() {
	if k.debugChecks || k.live >= k.gcTrigger {
		k.GC()
	}
}

// CheckPins reports whether the kernel's pins are exactly owned: every live
// node must be pinned as many times as it occurs in owned, the Refs its
// owners hold. Terminals and Invalid are skipped, as Protect skips them. The
// error names the first node, in table order, whose pin count differs: a
// pinned node nothing owns is a leak, an owned node not pinned (or already
// freed) a Ref the next collection may free under its owner.
func (k *Kernel) CheckPins(owned []Ref) error {
	want := make([]int32, len(k.refs))
	for _, f := range owned {
		if f > True {
			want[f]++
		}
	}
	for i := 2; i < len(want); i++ {
		if k.refs[i] != want[i] {
			return fmt.Errorf("bdd: node %d is pinned %d times and owned %d times", i, k.refs[i], want[i])
		}
	}
	return nil
}

// GC runs a mark-and-sweep garbage collection at a safe point. Pinned nodes
// (Protect) survive, and so does every operation-cache entry whose operands
// do: it keeps its result (and a quantification's cube, which the next caller
// rebuilds node by node and must find in the same slots) alive — ephemeron
// semantics, run to a fixpoint, since a result kept alive is the operand of
// further entries. Only entries naming a node that ends up dead are
// invalidated: their slots are about to be recycled for unrelated functions.
// The table afterwards holds the roots plus what is memoised about them, so
// the garbage this retains is bounded by the caches' sizes; ClearCaches first
// collects down to the roots alone.
//
// The fixpoint is the standard ephemeron worklist, linear in table plus
// caches: one scan files each undecided entry under an operand that is not
// marked yet, and marking a node re-examines the entries filed under it.
func (k *Kernel) GC() {
	entries := len(k.applyCache) + len(k.quantCache) + len(k.replaceCache)
	c := &collector{
		k:        k,
		marked:   make([]bool, len(k.level)),
		waitHead: make([]int32, len(k.level)),
		waitNext: make([]int32, entries),
	}
	c.marked[False] = true
	c.marked[True] = true
	for i := 2; i < len(k.level); i++ {
		if k.refs[i] > 0 && k.level[i] != freedLevel {
			c.push(Ref(i))
		}
	}
	c.drain()
	for id := 0; id < entries; id++ {
		c.examine(int32(id))
		c.drain()
	}
	for _, link := range c.waitHead { // what still waits, waits for a dead node
		for link != 0 {
			k.dropMemoEntry(link - 1)
			link = c.waitNext[link-1]
		}
	}
	k.sweep(c.marked)
	if k.debugChecks {
		for id := 0; id < entries; id++ {
			f, g, res, cube, ok := k.memoEntry(int32(id))
			if !ok {
				continue
			}
			for _, r := range [...]Ref{f, g, res, cube} {
				if k.level[r] == freedLevel {
					panic(fmt.Sprintf("bdd: GC kept an operation-cache entry naming freed node %d", r))
				}
			}
		}
	}
}

// collector is the mark phase of one collection. Cache entries are numbered
// across the three caches (see memoEntry); waitHead[f] starts the list of
// entries that cannot be decided before node f is, waitNext links it. A link
// is an entry's number plus one: zeroed memory is empty lists.
type collector struct {
	k        *Kernel
	marked   []bool
	stack    []Ref // marked, children not yet visited
	waitHead []int32
	waitNext []int32
}

func (c *collector) push(f Ref) {
	if f > True && !c.marked[f] {
		c.marked[f] = true
		c.stack = append(c.stack, f)
	}
}

// drain marks everything reachable from the stack, waking the cache entries
// that waited for a node it reaches.
func (c *collector) drain() {
	for len(c.stack) > 0 {
		f := c.stack[len(c.stack)-1]
		c.stack = c.stack[:len(c.stack)-1]
		c.push(c.k.low[f])
		c.push(c.k.high[f])
		for link := c.waitHead[f]; link != 0; {
			id := link - 1
			link = c.waitNext[id] // before examine refiles id under its other operand
			c.examine(id)
		}
		c.waitHead[f] = 0
	}
}

// examine decides cache entry id if its operands are marked — its result and
// cube are then live too — and otherwise files it under an unmarked operand.
func (c *collector) examine(id int32) {
	f, g, res, cube, ok := c.k.memoEntry(id)
	if !ok {
		return
	}
	if c.marked[f] {
		f = g
	}
	if !c.marked[f] {
		c.waitNext[id] = c.waitHead[f]
		c.waitHead[f] = id + 1
		return
	}
	c.push(res)
	c.push(cube)
}

// memoEntry reads operation-cache entry id, numbering the apply cache's
// entries first, then the quantification cache's, then the replacement
// cache's. Operands an entry does not have read as terminals, which are
// always live; ok is false for an empty or invalidated entry.
func (k *Kernel) memoEntry(id int32) (f, g, res, cube Ref, ok bool) {
	i := int(id)
	if i < len(k.applyCache) {
		e := &k.applyCache[i]
		return e.f, e.g, e.res, True, e.epoch == k.cacheEpoch
	}
	i -= len(k.applyCache)
	if i < len(k.quantCache) {
		e := &k.quantCache[i]
		return e.f, e.g, e.res, e.cube, e.epoch == k.cacheEpoch
	}
	e := &k.replaceCache[i-len(k.quantCache)]
	return e.f, False, e.res, True, e.epoch == k.cacheEpoch
}

// dropMemoEntry invalidates operation-cache entry id (numbered as by
// memoEntry): epoch zero never matches.
func (k *Kernel) dropMemoEntry(id int32) {
	i := int(id)
	if i < len(k.applyCache) {
		k.applyCache[i].epoch = 0
		return
	}
	i -= len(k.applyCache)
	if i < len(k.quantCache) {
		k.quantCache[i].epoch = 0
		return
	}
	k.replaceCache[i-len(k.quantCache)].epoch = 0
}

// sweep rebuilds the bucket chains from the marked nodes and threads the
// rest onto the free list, stamped freedLevel.
func (k *Kernel) sweep(marked []bool) {
	for i := range k.buckets {
		k.buckets[i] = -1
	}
	k.free = -1
	k.live = 2
	mask := uint32(len(k.buckets) - 1)
	for i := 2; i < len(k.level); i++ {
		if marked[i] {
			h := nodeHash(k.level[i], k.low[i], k.high[i]) & mask
			k.next[i] = k.buckets[h]
			k.buckets[h] = int32(i)
			k.live++
		} else {
			k.next[i] = k.free
			k.refs[i] = 0
			k.level[i] = freedLevel
			k.free = int32(i)
		}
	}
	k.gcCount++
	k.gcBase = k.live
	k.resetGCTrigger()
}
