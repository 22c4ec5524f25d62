// Package index builds and maintains the paper's logical indices: BDD
// representations of (projections of) relational tables, constructed under a
// configurable node budget and maintained incrementally as the base table
// changes (§2.3, §5.2).
//
// All indices of a Store share one BDD kernel, so common subfunctions are
// physically shared ("shared node implementation", §2.2), and one node
// budget covers the sum of all indices plus any intermediate results of
// constraint evaluation.
package index

import (
	"fmt"
	"sort"

	"repro/internal/bdd"
	"repro/internal/fdd"
	"repro/internal/relation"
)

// Options configures a Store.
type Options struct {
	// NodeBudget bounds the number of live BDD nodes across all indices and
	// all in-flight constraint evaluations. Zero means unlimited. The paper
	// uses 10^6 nodes (§5.2, "Evaluating BDD overhead").
	NodeBudget int
	// CacheSize is the per-operation cache size of the kernel (entries).
	CacheSize int
}

// Store owns the shared kernel and the logical indices built in it.
type Store struct {
	kernel  *bdd.Kernel
	space   *fdd.Space
	indices map[string]*Index
}

// NewStore creates an empty index store.
func NewStore(opts Options) *Store {
	k := bdd.New(bdd.Config{Vars: 0, NodeBudget: opts.NodeBudget, CacheSize: opts.CacheSize})
	return &Store{
		kernel:  k,
		space:   fdd.NewSpace(k),
		indices: make(map[string]*Index),
	}
}

// Kernel exposes the shared kernel (for query evaluation and metrics).
func (s *Store) Kernel() *bdd.Kernel { return s.kernel }

// Space exposes the shared finite-domain space (query evaluation allocates
// its variable blocks here).
func (s *Store) Space() *fdd.Space { return s.space }

// Index returns the index named name, or nil.
func (s *Store) Index(name string) *Index { return s.indices[name] }

// Names lists the store's index names in sorted order, for stats reporting.
func (s *Store) Names() []string {
	out := make([]string, 0, len(s.indices))
	for name := range s.indices {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Index is the BDD representation of the projection of a table onto a set
// of indexed columns, i.e. the characteristic function of that projection.
type Index struct {
	store *Store
	table *relation.Table
	name  string
	cols  []int         // indexed columns, in table schema order
	doms  []*fdd.Domain // parallel to cols
	order []int         // positions into cols, the block layout order used
	root  bdd.Ref
}

// Build constructs an index named name over the given columns of t. order
// is a permutation of 0..len(cols)-1 choosing the variable-block layout
// (produced by package ordering); nil means schema order. Build returns
// bdd.ErrBudget (wrapped) when the index does not fit the node budget; the
// paper's strategy then leaves the table to SQL processing.
func (s *Store) Build(name string, t *relation.Table, cols []int, order []int) (*Index, error) {
	if _, dup := s.indices[name]; dup {
		return nil, fmt.Errorf("index: %q already exists", name)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("index: %q has no columns", name)
	}
	if order == nil {
		order = make([]int, len(cols))
		for i := range order {
			order[i] = i
		}
	}
	if len(order) != len(cols) {
		return nil, fmt.Errorf("index: %q: order has %d entries for %d columns", name, len(order), len(cols))
	}
	ix := &Index{store: s, table: t, name: name, cols: cols, order: order}
	// Allocate blocks in layout order; record them in schema order.
	ix.doms = make([]*fdd.Domain, len(cols))
	seen := make([]bool, len(cols))
	for _, pos := range order {
		if pos < 0 || pos >= len(cols) || seen[pos] {
			return nil, fmt.Errorf("index: %q: order is not a permutation", name)
		}
		seen[pos] = true
		col := cols[pos]
		dom := t.ColumnDomain(col)
		ix.doms[pos] = s.space.NewDomain(
			fmt.Sprintf("%s.%s", name, t.ColumnNames()[col]), dom.Size())
	}
	rows := make([][]int, t.Len())
	for i := 0; i < t.Len(); i++ {
		row := t.Row(i)
		proj := make([]int, len(cols))
		for j, c := range cols {
			proj[j] = int(row[c])
		}
		rows[i] = proj
	}
	root, err := fdd.Relation(ix.doms, rows)
	if err != nil {
		s.kernel.ClearErr()
		s.kernel.GC(s.protectedRoots()...)
		return nil, fmt.Errorf("index: building %q: %w", name, err)
	}
	ix.root = root
	s.kernel.Protect(root)
	s.indices[name] = ix
	return ix, nil
}

// Adopt registers an index whose BDD was built elsewhere: the replication
// path copies a primary index root into a replica kernel with bdd.CopyTo
// and adopts it here, together with blocks reproduced through
// fdd.Space.AdoptDomain. doms is parallel to cols (schema order), order is
// the block layout permutation exactly as in Build, and root must be a Ref
// of this store's kernel. The root is protected like a built index's.
func (s *Store) Adopt(name string, t *relation.Table, cols []int, order []int, doms []*fdd.Domain, root bdd.Ref) (*Index, error) {
	if _, dup := s.indices[name]; dup {
		return nil, fmt.Errorf("index: %q already exists", name)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("index: %q has no columns", name)
	}
	if len(doms) != len(cols) {
		return nil, fmt.Errorf("index: %q: %d domains for %d columns", name, len(doms), len(cols))
	}
	if order == nil {
		order = make([]int, len(cols))
		for i := range order {
			order[i] = i
		}
	}
	if len(order) != len(cols) {
		return nil, fmt.Errorf("index: %q: order has %d entries for %d columns", name, len(order), len(cols))
	}
	if root == bdd.Invalid {
		return nil, fmt.Errorf("index: %q: adopting an Invalid root", name)
	}
	ix := &Index{store: s, table: t, name: name, cols: cols, doms: doms, order: order, root: root}
	s.kernel.Protect(root)
	s.indices[name] = ix
	return ix, nil
}

// Rebind points an adopted index at a newer image of the same projection: t
// is the table's counterpart in a newer catalog and root its BDD over the
// same blocks, already transferred into this store's kernel. The new root is
// pinned before the old one is released, so what they share never becomes
// collectable in between.
func (ix *Index) Rebind(t *relation.Table, root bdd.Ref) {
	k := ix.store.kernel
	k.Protect(root)
	k.Unprotect(ix.root)
	ix.table, ix.root = t, root
}

func (s *Store) protectedRoots() []bdd.Ref {
	var roots []bdd.Ref
	for _, ix := range s.indices {
		roots = append(roots, ix.root)
	}
	return roots
}

// Drop removes the index and releases its nodes for collection. The block
// variables remain allocated (kernel variables cannot be removed), which is
// harmless.
func (s *Store) Drop(name string) {
	ix, ok := s.indices[name]
	if !ok {
		return
	}
	s.kernel.Unprotect(ix.root)
	delete(s.indices, name)
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Table returns the indexed table.
func (ix *Index) Table() *relation.Table { return ix.table }

// Columns returns the indexed column positions in schema order.
func (ix *Index) Columns() []int { return ix.cols }

// Order returns the block layout permutation chosen at build time
// (positions into Columns()). The returned slice must not be modified.
func (ix *Index) Order() []int { return ix.order }

// Root returns the BDD of the indexed projection.
func (ix *Index) Root() bdd.Ref { return ix.root }

// Domain returns the finite-domain block encoding indexed column col (a
// table schema position), or nil if col is not indexed.
func (ix *Index) Domain(col int) *fdd.Domain {
	for j, c := range ix.cols {
		if c == col {
			return ix.doms[j]
		}
	}
	return nil
}

// Domains returns the blocks of all indexed columns in schema order.
func (ix *Index) Domains() []*fdd.Domain { return ix.doms }

// NodeCount returns the size of the index in BDD nodes.
func (ix *Index) NodeCount() int { return ix.store.kernel.NodeCount(ix.root) }

func (ix *Index) project(row []int32) ([]int, error) {
	proj := make([]int, len(ix.cols))
	for j, c := range ix.cols {
		v := int(row[c])
		if v >= 1<<ix.doms[j].Bits() {
			return nil, fmt.Errorf("index: %q: value code %d overflows the %d-bit block of column %d; rebuild the index",
				ix.name, v, ix.doms[j].Bits(), c)
		}
		proj[j] = v
	}
	return proj, nil
}

// Insert adds the encoded table row to the index. Codes that no longer fit
// the blocks allocated at build time (the column dictionary grew past a
// power of two) are reported as an error; the caller must rebuild.
func (ix *Index) Insert(row []int32) error {
	proj, err := ix.project(row)
	if err != nil {
		return err
	}
	k := ix.store.kernel
	newRoot := k.Or(ix.root, fdd.Minterm(ix.doms, proj))
	if newRoot == bdd.Invalid {
		err := k.Err()
		k.ClearErr()
		return fmt.Errorf("index: inserting into %q: %w", ix.name, err)
	}
	k.Protect(newRoot)
	k.Unprotect(ix.root)
	ix.root = newRoot
	return nil
}

// Delete removes the encoded row from the index. Because the index has set
// semantics while tables are bags, stillPresent must be true when another
// table row with the same indexed projection remains; the deletion is then
// a no-op on the index.
func (ix *Index) Delete(row []int32, stillPresent bool) error {
	if stillPresent {
		return nil
	}
	proj, err := ix.project(row)
	if err != nil {
		return err
	}
	k := ix.store.kernel
	newRoot := k.Diff(ix.root, fdd.Minterm(ix.doms, proj))
	if newRoot == bdd.Invalid {
		err := k.Err()
		k.ClearErr()
		return fmt.Errorf("index: deleting from %q: %w", ix.name, err)
	}
	k.Protect(newRoot)
	k.Unprotect(ix.root)
	ix.root = newRoot
	return nil
}

// Contains reports whether the indexed projection of the encoded row is in
// the index — the O(bits) membership test of §2.2.
func (ix *Index) Contains(row []int32) bool {
	proj, err := ix.project(row)
	if err != nil {
		return false
	}
	k := ix.store.kernel
	f := ix.root
	lits := fdd.Tuple(ix.doms, proj)
	byVar := make(map[int]bool, len(lits))
	for _, l := range lits {
		byVar[l.Var] = l.Value
	}
	for !k.IsTerminal(f) {
		v, ok := byVar[k.VarOf(f)]
		if !ok {
			// Variable of another block: both branches agree on this
			// projection only if the node does not actually test an
			// indexed bit, which cannot happen for an index root.
			panic("index: root depends on a foreign variable")
		}
		if v {
			f = k.High(f)
		} else {
			f = k.Low(f)
		}
	}
	return f == bdd.True
}
