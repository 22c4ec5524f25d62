// snapshot.go exports the checker's indices for replication and persistence:
// the names and variable blocks a second checker needs to reproduce the
// primary's indices bit-for-bit inside its own kernel, and their roots as one
// bdd.Image. Variable positions determine the semantics of every encoded
// relation, so adoption must copy the layout exactly rather than re-allocate
// blocks in discovery order.
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

// IndexSnapshot describes one logical index's geometry: enough to re-register
// it over another kernel once its root has arrived there in a bdd.Image (see
// ExportIndices).
type IndexSnapshot struct {
	Name   string
	Table  string
	Cols   []int
	Order  []int
	Blocks []BlockSnapshot
}

// Options returns the options the checker was created with. A replica
// checker created with the same options reproduces the primary's budget
// normalization.
func (c *Checker) Options() Options { return c.opts }

// SnapshotIndices captures the geometry of every index of the checker in
// sorted name order.
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

// ExportIndices captures every index: its geometry, as SnapshotIndices does,
// and its root, in one image whose roots are parallel to the snapshots, so
// structure shared between indices is exported once. The image belongs to no
// kernel; later changes to this checker cannot reach it.
func (c *Checker) ExportIndices() (*bdd.Image, []IndexSnapshot, error) {
	snaps := c.SnapshotIndices()
	roots := make([]bdd.Ref, len(snaps))
	for i, s := range snaps {
		roots[i] = c.store.Index(s.Name).Root()
	}
	img, err := c.store.Kernel().Export(roots...)
	return img, snaps, err
}

// AdoptIndices reproduces exported indices inside this checker: it raises
// the kernel's variable count to cover every block, imports the image (one
// walk, so structure shared between indices stays shared), re-registers the
// blocks at their original positions, and registers each index for
// incremental maintenance. The checker must be fresh — no indices built yet —
// and its catalog must contain the snapshotted tables. img is only read, so
// many replicas can adopt from one image concurrently.
func (c *Checker) AdoptIndices(img *bdd.Image, snaps []IndexSnapshot) error {
	k := c.store.Kernel()
	maxVar := -1
	for _, s := range snaps {
		for _, b := range s.Blocks {
			for _, v := range b.Vars {
				maxVar = max(maxVar, v)
			}
		}
	}
	if maxVar >= k.NumVars() {
		k.AddVars(maxVar + 1 - k.NumVars())
	}
	roots, err := importRoots(k, img, snaps)
	if err != nil {
		return fmt.Errorf("core: adopting indices: %w", err)
	}
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

// AdvanceIndices moves a checker that adopted an earlier export of the same
// indices to a newer one in place: the image is imported into the kernel the
// checker already has — re-interning finds every node the two exports share,
// so only the difference is allocated — and each index is rebound to its new
// root and to its table in cat, the newer catalog. The kernel, its operation
// caches and the evaluator's scratch blocks survive; the evaluator's bound
// predicates do not (they were bound to the old roots).
//
// Everything that can fail is checked before any index is rebound: the
// snapshots must describe exactly the indices the checker holds (names,
// tables, columns, block layout), the image must place the block variables in
// the same relative order as this kernel, and the import must fit the node
// budget. On error the checker still serves the export it served before,
// with the kernel's sticky error cleared; the caller builds a fresh checker
// instead. img is only read.
func (c *Checker) AdvanceIndices(cat *relation.Catalog, img *bdd.Image, snaps []IndexSnapshot) error {
	k := c.store.Kernel()
	held := c.SnapshotIndices()
	if !slices.EqualFunc(held, snaps, sameGeometry) {
		return fmt.Errorf("core: advancing indices: the snapshot's index geometry differs from the checker's")
	}
	var vars []int
	for _, s := range snaps {
		if cat.Table(s.Table) == nil {
			return fmt.Errorf("core: advancing index %q: unknown table %q", s.Name, s.Table)
		}
		for _, b := range s.Blocks {
			vars = append(vars, b.Vars...)
		}
	}
	level := make([]int, k.NumVars())
	for l, v := range img.VarOrder() {
		if v < len(level) {
			level[v] = l
		}
	}
	slices.SortFunc(vars, func(a, b int) int { return level[a] - level[b] })
	for i := 1; i < len(vars); i++ {
		if k.LevelOfVar(vars[i-1]) > k.LevelOfVar(vars[i]) {
			return fmt.Errorf("core: advancing indices: the source's variable order moved")
		}
	}
	roots, err := importRoots(k, img, snaps)
	if err != nil {
		k.ClearErr()
		return fmt.Errorf("core: advancing indices: %w", err)
	}
	for i, s := range snaps {
		c.store.Index(s.Name).Rebind(cat.Table(s.Table), roots[i])
		c.ev.ForgetPred(s.Name)
	}
	c.catalog = cat
	return nil
}

// importRoots imports img into k and checks that it carries one root per
// snapshot.
func importRoots(k *bdd.Kernel, img *bdd.Image, snaps []IndexSnapshot) ([]bdd.Ref, error) {
	roots, err := k.Import(img)
	if err == nil && len(roots) != len(snaps) {
		err = fmt.Errorf("the image carries %d roots for %d indices", len(roots), len(snaps))
	}
	return roots, err
}

// sameGeometry reports whether two snapshots describe the same index: name,
// table, columns and the blocks' names, sizes and variables.
func sameGeometry(a, b IndexSnapshot) bool {
	return a.Name == b.Name && a.Table == b.Table &&
		slices.Equal(a.Cols, b.Cols) && slices.Equal(a.Order, b.Order) &&
		slices.EqualFunc(a.Blocks, b.Blocks, func(x, y BlockSnapshot) bool {
			return x.Name == y.Name && x.Size == y.Size && slices.Equal(x.Vars, y.Vars)
		})
}
