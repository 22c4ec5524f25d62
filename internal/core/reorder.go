// reorder.go hooks the kernel's dynamic variable reordering (sifting) into
// the checker. The index store registers each column block as a sifting
// group when the block is allocated, so a reorder moves whole attribute
// encodings and never interleaves bits of different columns; index roots and
// the evaluator's pinned caches keep their functions across a run (sifting
// preserves external Refs), and interned replace maps are re-derived for the
// new order by the kernel itself.
package core

import "repro/internal/bdd"

// ReorderGrowthDefault is the default growth factor of the reorder trigger:
// sift when the kernel holds this many times the nodes it held right after
// the previous sift (or the first observation).
const ReorderGrowthDefault = 2.0

// ReorderMinNodesDefault is the default floor below which MaybeReorder never
// sifts — tiny tables reorder in microseconds but the savings are noise.
const ReorderMinNodesDefault = 4096

// Reorder runs one group-sifting pass over the shared kernel and returns
// the kernel's report. All index roots, evaluator caches and outstanding
// Refs stay valid; only the internal variable order (and therefore node
// counts and traversal costs) changes.
func (c *Checker) Reorder() bdd.ReorderStats {
	st := c.store.Kernel().Reorder()
	c.reorderBaseline = st.After
	return st
}

// MaybeReorder applies the node-growth heuristic: it sifts only when the
// live-node count has grown past growth × the post-reorder baseline (the
// live count right after the previous sift, or the first call's
// observation) and is at least minNodes. Zero growth or minNodes select the
// defaults. It reports whether a sift ran.
//
// The check is two integer comparisons plus, when the raw count trips the
// threshold, one GC to discount collectable garbage — cheap enough to call
// after every update batch.
func (c *Checker) MaybeReorder(growth float64, minNodes int) (bdd.ReorderStats, bool) {
	if growth <= 1 {
		growth = ReorderGrowthDefault
	}
	if minNodes <= 0 {
		minNodes = ReorderMinNodesDefault
	}
	k := c.store.Kernel()
	if k.Err() != nil {
		return bdd.ReorderStats{}, false
	}
	live := k.Stats().Live
	if c.reorderBaseline == 0 {
		c.reorderBaseline = live
		return bdd.ReorderStats{}, false
	}
	if live < c.reorderBaseline {
		// Deletions shrank the structure below the baseline; track it down
		// so later growth is measured against the smaller footprint.
		c.reorderBaseline = live
		return bdd.ReorderStats{}, false
	}
	if live < minNodes || float64(live) < growth*float64(c.reorderBaseline) {
		return bdd.ReorderStats{}, false
	}
	// The raw count trips the threshold, but it may be garbage from the
	// update batch rather than real growth: collect first and re-measure.
	k.GC()
	live = k.Stats().Live
	if live < minNodes || float64(live) < growth*float64(c.reorderBaseline) {
		c.reorderBaseline = min(c.reorderBaseline, live)
		return bdd.ReorderStats{}, false
	}
	return c.Reorder(), true
}
