// snapshot.go exports the checker's index geometry for replication: the
// names, roots and variable blocks a second checker needs to reproduce the
// primary's indices bit-for-bit inside its own kernel. Variable positions
// determine the semantics of every encoded relation, so adoption must copy
// the layout exactly rather than re-allocate blocks in discovery order.
package core

import (
	"fmt"
	"slices"

	"repro/internal/bdd"
	"repro/internal/fdd"
	"repro/internal/relation"
)

// BlockSnapshot describes one finite-domain block of an index: its name,
// the domain cardinality it encodes, and the kernel variables it occupies
// (most significant bit first).
type BlockSnapshot struct {
	Name string
	Size int
	Vars []int
}

// IndexSnapshot describes one logical index: enough to re-register it over
// another kernel after transferring Root with bdd.CopyTo, or to persist it
// with bdd.Save and re-adopt after bdd.Load.
type IndexSnapshot struct {
	Name   string
	Table  string
	Cols   []int
	Order  []int
	Root   bdd.Ref
	Blocks []BlockSnapshot
}

// Options returns the options the checker was created with (Eval defaulted
// as by New). A replica checker created with the same options reproduces
// the primary's budget normalization and evaluation strategy.
func (c *Checker) Options() Options { return c.opts }

// SnapshotIndices captures every index of the checker in sorted name order.
// The returned roots are Refs of this checker's kernel; they stay valid as
// long as the indices are not dropped or rebuilt.
func (c *Checker) SnapshotIndices() []IndexSnapshot {
	names := c.store.Names()
	out := make([]IndexSnapshot, 0, len(names))
	for _, name := range names {
		ix := c.store.Index(name)
		snap := IndexSnapshot{
			Name:  name,
			Table: ix.Table().Name(),
			Cols:  append([]int(nil), ix.Columns()...),
			Order: append([]int(nil), ix.Order()...),
			Root:  ix.Root(),
		}
		for _, d := range ix.Domains() {
			snap.Blocks = append(snap.Blocks, BlockSnapshot{
				Name: d.Name(),
				Size: d.Size(),
				Vars: append([]int(nil), d.Vars()...),
			})
		}
		out = append(out, snap)
	}
	return out
}

// AdoptIndices reproduces snapshotted indices inside this checker: it
// raises the kernel's variable count to cover every block, re-registers the
// blocks at their original positions, transfers all roots from src in one
// CopyTo walk (so structure shared between indices stays shared), and
// registers each index for incremental maintenance. The checker must be
// fresh — no indices built yet — and its catalog must contain the
// snapshotted tables. src is only read, so many replicas can adopt from one
// frozen source concurrently.
func (c *Checker) AdoptIndices(src *bdd.Kernel, snaps []IndexSnapshot) error {
	c.raiseVarsFor(snaps)
	roots := make([]bdd.Ref, len(snaps))
	for i, s := range snaps {
		roots[i] = s.Root
	}
	copied, err := src.CopyTo(c.store.Kernel(), roots...)
	if err != nil {
		return fmt.Errorf("core: adopting indices: %w", err)
	}
	return c.adoptSnapshots(snaps, copied)
}

// AdvanceIndices moves a checker that adopted an earlier snapshot of the same
// indices to a newer one in place: the roots are transferred from src into
// the kernel the checker already has — re-interning finds every node the two
// snapshots share, so only the difference is allocated — and each index is
// rebound to its new root and to its table in cat, the newer catalog. The
// kernel, its operation caches and the evaluator's scratch blocks survive;
// the evaluator's bound predicates do not (they were bound to the old roots).
//
// Everything that can fail is checked before anything is changed: the
// snapshots must describe exactly the indices the checker holds (names,
// tables, columns, block layout), src must place the block variables in the
// same relative order as this kernel, and the copy must fit the node budget.
// On error the checker still serves the snapshot it served before, with the
// kernel's sticky error cleared; the caller builds a fresh checker instead.
// src is only read.
func (c *Checker) AdvanceIndices(cat *relation.Catalog, src *bdd.Kernel, snaps []IndexSnapshot) error {
	k := c.store.Kernel()
	held := c.SnapshotIndices()
	if !slices.EqualFunc(held, snaps, sameGeometry) {
		return fmt.Errorf("core: advancing indices: the snapshot's index geometry differs from the checker's")
	}
	var vars []int
	roots := make([]bdd.Ref, len(snaps))
	for i, s := range snaps {
		if cat.Table(s.Table) == nil {
			return fmt.Errorf("core: advancing index %q: unknown table %q", s.Name, s.Table)
		}
		for _, b := range s.Blocks {
			vars = append(vars, b.Vars...)
		}
		roots[i] = s.Root
	}
	slices.SortFunc(vars, func(a, b int) int { return src.LevelOfVar(a) - src.LevelOfVar(b) })
	for i := 1; i < len(vars); i++ {
		if k.LevelOfVar(vars[i-1]) > k.LevelOfVar(vars[i]) {
			return fmt.Errorf("core: advancing indices: the source's variable order moved")
		}
	}
	copied, err := src.CopyTo(k, roots...)
	if err != nil {
		k.ClearErr()
		return fmt.Errorf("core: advancing indices: %w", err)
	}
	for i, s := range snaps {
		c.store.Index(s.Name).Rebind(cat.Table(s.Table), copied[i])
		c.ev.ForgetPred(s.Name)
	}
	c.catalog = cat
	return nil
}

// sameGeometry reports whether two snapshots describe the same index up to
// its root: name, table, columns and the blocks' names, sizes and variables.
func sameGeometry(a, b IndexSnapshot) bool {
	return a.Name == b.Name && a.Table == b.Table &&
		slices.Equal(a.Cols, b.Cols) && slices.Equal(a.Order, b.Order) &&
		slices.EqualFunc(a.Blocks, b.Blocks, func(x, y BlockSnapshot) bool {
			return x.Name == y.Name && x.Size == y.Size && slices.Equal(x.Vars, y.Vars)
		})
}

// AdoptOwnedIndices registers snapshotted indices whose roots already live
// in this checker's kernel — the durability layer's restore path, which
// loads the roots with bdd.Load before re-registering blocks and indices.
// Like AdoptIndices, the checker must be fresh and its catalog must contain
// the snapshotted tables; the kernel's variable count is raised to cover
// every block (the restore path raises it before Load, so this is a no-op
// there).
func (c *Checker) AdoptOwnedIndices(snaps []IndexSnapshot) error {
	c.raiseVarsFor(snaps)
	roots := make([]bdd.Ref, len(snaps))
	for i, s := range snaps {
		roots[i] = s.Root
	}
	return c.adoptSnapshots(snaps, roots)
}

// raiseVarsFor grows the kernel's variable count to cover every block of the
// snapshots, so adopted blocks land at their original positions.
func (c *Checker) raiseVarsFor(snaps []IndexSnapshot) {
	k := c.store.Kernel()
	maxVar := -1
	for _, s := range snaps {
		for _, b := range s.Blocks {
			for _, v := range b.Vars {
				if v > maxVar {
					maxVar = v
				}
			}
		}
	}
	if maxVar >= k.NumVars() {
		k.AddVars(maxVar + 1 - k.NumVars())
	}
}

// adoptSnapshots registers blocks and indices for snaps whose roots (parallel
// slice, refs of this checker's kernel) have already been transferred.
func (c *Checker) adoptSnapshots(snaps []IndexSnapshot, roots []bdd.Ref) error {
	for i, s := range snaps {
		t := c.catalog.Table(s.Table)
		if t == nil {
			return fmt.Errorf("core: adopting index %q: unknown table %q", s.Name, s.Table)
		}
		doms := make([]*fdd.Domain, len(s.Blocks))
		for j, b := range s.Blocks {
			doms[j] = c.store.Space().AdoptDomain(b.Name, b.Size, b.Vars)
		}
		if _, err := c.store.Adopt(s.Name, t,
			append([]int(nil), s.Cols...), append([]int(nil), s.Order...), doms, roots[i]); err != nil {
			return fmt.Errorf("core: adopting index %q: %w", s.Name, err)
		}
		c.indexRegistry[s.Table] = append(c.indexRegistry[s.Table], s.Name)
	}
	return nil
}
