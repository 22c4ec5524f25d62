// snapshot.go exports the checker's indices for replication and persistence:
// the names and variable blocks a second checker needs to reproduce the
// primary's indices bit-for-bit inside its own kernel, and their roots and
// their maintained projections' roots as one bdd.Image. Variable positions
// determine the semantics of every encoded relation, so adoption must copy
// the layout exactly rather than re-allocate blocks in discovery order.
package core

import (
	"fmt"
	"slices"

	"repro/internal/bdd"
	"repro/internal/fdd"
	"repro/internal/index"
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
// ExportIndices). Projections lists the kept positions of each projection the
// index maintains, in the order their roots follow the index roots in the
// image; they are not part of the geometry.
type IndexSnapshot struct {
	Name        string
	Table       string
	Cols        []int
	Order       []int
	Blocks      []BlockSnapshot
	Projections [][]int
}

// Options returns the options the checker was created with. A replica
// checker created with the same options reproduces the primary's budget
// normalization.
func (c *Checker) Options() Options { return c.opts }

// SnapshotIndices captures the geometry of every index of the checker, and
// the positions its maintained projections keep, in sorted name order.
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
		for _, p := range ix.Projections() {
			snap.Projections = append(snap.Projections, p.Keep)
		}
		out = append(out, snap)
	}
	return out
}

// ExportIndices captures every index: its geometry and projection lists, as
// SnapshotIndices does, its root and its maintained projections' roots, in
// one image. The image's roots are the index roots, parallel to the
// snapshots, then each index's projection roots in snapshot order, so
// structure shared between indices and projections is exported once. The
// image belongs to no kernel; later changes to this checker cannot reach it.
func (c *Checker) ExportIndices() (*bdd.Image, []IndexSnapshot, error) {
	img, err := c.store.Kernel().Export(c.indexRefs()...)
	return img, c.SnapshotIndices(), err
}

// indexRefs returns the index roots in name order, then their projections'
// roots in the same order: ExportIndices's image roots, the store's pins.
func (c *Checker) indexRefs() []bdd.Ref {
	names := c.store.Names()
	refs := make([]bdd.Ref, len(names))
	for i, name := range names {
		ix := c.store.Index(name)
		refs[i] = ix.Root()
		for _, p := range ix.Projections() {
			refs = append(refs, p.Root)
		}
	}
	return refs
}

// ReadProjections reads the demanded projections of the checker's indices on
// behalf of the kernels that demanded them (index.Store.Replay): the next
// export carries each one, and the checker maintains it while readers keep
// demanding it.
func (c *Checker) ReadProjections(ds []index.Demand) {
	defer c.safePoint()
	c.store.Replay(ds)
}

// AdoptIndices reproduces exported indices inside this checker: it raises
// the kernel's variable count to cover every block, imports the image (one
// walk, so structure shared between indices stays shared), re-registers the
// blocks at their original positions, and registers each index, with the
// projections it maintained. The checker must be fresh — no indices built
// yet — and its catalog must contain the snapshotted tables. img is only
// read, so many replicas can adopt from one image concurrently.
func (c *Checker) AdoptIndices(img *bdd.Image, snaps []IndexSnapshot) error {
	defer c.safePoint()
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
	roots, projs, err := importRoots(k, img, snaps)
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
			append([]int(nil), s.Cols...), append([]int(nil), s.Order...), doms, roots[i], projs[i]); err != nil {
			return fmt.Errorf("core: adopting index %q: %w", s.Name, err)
		}
	}
	return nil
}

// AdvanceIndices moves a checker that adopted an earlier export of the same
// indices to a newer one in place: the image is imported into the kernel the
// checker already has — re-interning finds every node the two exports share,
// so only the difference is allocated — and each index is rebound to its new
// root, its new projections and its table in cat, the newer catalog. The
// kernel, its operation caches and the evaluator's scratch blocks survive;
// the evaluator's bound predicates do not (they were bound to the old roots).
//
// Everything that can fail is checked before any index is rebound: the
// snapshots must describe exactly the indices the checker holds (names,
// tables, columns, block layout), and the import must fit the node budget.
// On error the checker still serves the export it served before, with the
// kernel's sticky error cleared; the caller builds a fresh checker instead.
// img is only read.
func (c *Checker) AdvanceIndices(cat *relation.Catalog, img *bdd.Image, snaps []IndexSnapshot) error {
	defer c.safePoint()
	k := c.store.Kernel()
	held := c.SnapshotIndices()
	if !slices.EqualFunc(held, snaps, sameGeometry) {
		return fmt.Errorf("core: advancing indices: the snapshot's index geometry differs from the checker's")
	}
	for _, s := range snaps {
		if cat.Table(s.Table) == nil {
			return fmt.Errorf("core: advancing index %q: unknown table %q", s.Name, s.Table)
		}
	}
	roots, projs, err := importRoots(k, img, snaps)
	if err != nil {
		k.ClearErr()
		return fmt.Errorf("core: advancing indices: %w", err)
	}
	for i, s := range snaps {
		c.store.Index(s.Name).Rebind(cat.Table(s.Table), roots[i], projs[i])
		c.ev.ForgetPred(s.Name)
	}
	c.catalog = cat
	return nil
}

// importRoots checks the snapshots' projection lists, imports img into k and
// checks that it carries one root per snapshot and one per listed
// projection. It returns the index roots, parallel to snaps, and each index's
// projections.
func importRoots(k *bdd.Kernel, img *bdd.Image, snaps []IndexSnapshot) ([]bdd.Ref, [][]index.Projected, error) {
	want := len(snaps)
	for _, s := range snaps {
		if err := index.CheckKeeps(s.Projections, len(s.Cols)); err != nil {
			return nil, nil, fmt.Errorf("index %q: %w", s.Name, err)
		}
		want += len(s.Projections)
	}
	refs, err := k.Import(img)
	if err == nil && len(refs) != want {
		err = fmt.Errorf("the image carries %d roots for %d indices and %d projections", len(refs), len(snaps), want-len(snaps))
	}
	if err != nil {
		return nil, nil, err
	}
	projs := make([][]index.Projected, len(snaps))
	next := len(snaps)
	for i, s := range snaps {
		for _, keep := range s.Projections {
			projs[i] = append(projs[i], index.Projected{Keep: keep, Root: refs[next]})
			next++
		}
	}
	return refs[:len(snaps)], projs, nil
}

// sameGeometry reports whether two snapshots describe the same index: name,
// table, columns and the blocks' names, sizes and variables. The projection
// lists may differ.
func sameGeometry(a, b IndexSnapshot) bool {
	return a.Name == b.Name && a.Table == b.Table &&
		slices.Equal(a.Cols, b.Cols) && slices.Equal(a.Order, b.Order) &&
		slices.EqualFunc(a.Blocks, b.Blocks, func(x, y BlockSnapshot) bool {
			return x.Name == y.Name && x.Size == y.Size && slices.Equal(x.Vars, y.Vars)
		})
}
