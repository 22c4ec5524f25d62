package bdd

import (
	"fmt"
	"sort"
)

// copy.go implements direct cross-kernel transfer of BDDs. Replication of
// read-only indices across worker kernels (internal/replica) needs to move
// whole subgraphs between kernels without the serialize/deserialize roundtrip
// of Save/Load; CopyTo is a memoized walk that re-interns each source node
// through the destination's makeNode, so copied BDDs share structure with
// everything already living in the destination and copying the same roots
// twice is a pure unique-table lookup.

// CopyTo transfers the subgraphs reachable from roots into dst and returns
// the corresponding destination Refs in the same order. The source kernel is
// only read, never mutated, so concurrent CopyTo calls from one frozen
// source into distinct destinations are safe; dst must not be used
// concurrently. The destination must have at least as many variables as the
// source uses, and variable i in the source is variable i in the
// destination — replication reproduces the source's variable layout before
// copying.
//
// Variable order: a pristine destination (no nodes beyond the terminals,
// still on the identity order) with enough variables adopts the source's
// current order first, so replicas built from a reordered primary inherit
// the ordering that made it small. A destination that already holds nodes
// must agree with the source on the relative order of the copied variables;
// CopyTo reports an error otherwise instead of corrupting canonicity.
//
// Copying counts against dst's node budget; on budget exhaustion the
// destination's sticky error is returned and dst is left with Err set, like
// any other aborted operation.
func (k *Kernel) CopyTo(dst *Kernel, roots ...Ref) ([]Ref, error) {
	if dst == k {
		out := make([]Ref, len(roots))
		copy(out, roots)
		return out, nil
	}
	if dst.live == 2 && dst.orderIsIdentity() && dst.numVars > 0 && k.numVars > 0 {
		// Canonicity only needs the RELATIVE source order of the variables
		// both kernels share, so rank-compress it onto the destination's
		// levels: shared variables sort by source level and take destination
		// levels 0..n-1 in that order. A destination at least as wide as the
		// source reproduces the source order exactly (rank == source level);
		// a narrower one (the source kept scratch variables above the copied
		// blocks) adopts the projected order, and a copied node that does use
		// a variable the destination lacks still fails below. Extra
		// destination variables keep their identity levels ≥ n.
		n := dst.numVars
		if k.numVars < n {
			n = k.numVars
		}
		order := make([]uint32, n)
		for i := range order {
			order[i] = uint32(i)
		}
		sort.Slice(order, func(i, j int) bool { return k.var2level[order[i]] < k.var2level[order[j]] })
		for lvl, v := range order {
			dst.var2level[v] = uint32(lvl)
			dst.level2var[lvl] = v
		}
		for i := range dst.replaceMaps {
			dst.rebuildReplaceMap(&dst.replaceMaps[i])
		}
		dst.ClearCaches()
	}
	// memo[f] is the copy of source node f. It is dense — one slot per source
	// table slot — because a per-call map was most of a copy's time. Zero
	// means "not copied yet": the copy of a non-terminal is a non-terminal
	// (distinct functions stay distinct under re-interning), never False.
	// Nothing copied needs pinning on the way: makeNode never collects.
	memo := make([]Ref, len(k.level))
	// Recursion depth is bounded by the variable count: levels strictly
	// increase downward, exactly as in Save's topological visit.
	var copyNode func(Ref) (Ref, error)
	copyNode = func(f Ref) (Ref, error) {
		if f == Invalid {
			return Invalid, fmt.Errorf("bdd: CopyTo of Invalid ref")
		}
		if f <= True {
			return f, nil
		}
		if g := memo[f]; g != False {
			return g, nil
		}
		v := k.level2var[k.level[f]]
		if int(v) >= dst.numVars {
			return Invalid, fmt.Errorf("bdd: CopyTo needs variable %d, destination has %d", v, dst.numVars)
		}
		dl := dst.var2level[v]
		low, err := copyNode(k.low[f])
		if err != nil {
			return Invalid, err
		}
		high, err := copyNode(k.high[f])
		if err != nil {
			return Invalid, err
		}
		if uint32(dst.Level(low)) <= dl || uint32(dst.Level(high)) <= dl {
			return Invalid, fmt.Errorf("bdd: CopyTo: destination variable order is incompatible with the source's")
		}
		g := dst.makeNode(dl, low, high)
		if g == Invalid {
			return Invalid, dst.Err()
		}
		memo[f] = g
		return g, nil
	}
	out := make([]Ref, len(roots))
	for i, r := range roots {
		g, err := copyNode(r)
		if err != nil {
			return nil, err
		}
		out[i] = g
	}
	return out, nil
}
