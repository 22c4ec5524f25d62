// Package index builds and maintains the paper's logical indices: BDD
// representations of (projections of) relational tables, constructed under a
// configurable node budget and maintained incrementally as the base table
// changes (§2.3, §5.2). A batch of changes moves an index once
// (Index.Apply): the tuples the batch adds and removes are each built as one
// BDD and joined to the root with one Or and one Diff.
//
// All indices of a Store share one BDD kernel, so common subfunctions are
// physically shared ("shared node implementation", §2.2), and one node
// budget covers the sum of all indices plus any intermediate results of
// constraint evaluation.
//
// An index also keeps the existential projections onto column subsets that
// its callers ask for (Index.Projection) and maintains them with the index
// itself, by the counting algorithm of incremental view maintenance (Gupta,
// Mumick & Subrahmanian, SIGMOD 1993): a projection counts the table rows
// behind each of its tuples, and its BDD changes only when a count moves
// between zero and one. The maintained projections travel with the index:
// Projections lists them for an export, and Adopt and Rebind take them in,
// so a replica reads the projections its primary maintains. A Store logs the
// projections its kernel reads (TakeDemand), so that a primary can read on
// its replicas' behalf (Replay) and keep what they use.
package index

import (
	"encoding/binary"
	"fmt"
	"slices"
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
}

// Store owns the shared kernel and the logical indices built in it.
type Store struct {
	kernel  *bdd.Kernel
	space   *fdd.Space
	indices map[string]*Index
	reads   Reads
	// demand logs the projections Projection was asked for.
	demand DemandSet
}

// NewStore creates an empty index store.
func NewStore(opts Options) *Store {
	k := bdd.New(bdd.Config{Vars: 0, NodeBudget: opts.NodeBudget})
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

// Reads counts the Projection calls, over every index of a store, that a
// projection answered without a recomputation: Maintained those that one
// maintained by at least one Apply answered, Adopted those that one taken in
// by Adopt or Rebind answered.
type Reads struct{ Maintained, Adopted int }

// Reads returns the store's projection read counts.
func (s *Store) Reads() Reads { return s.reads }

// TakeDemand returns the projections that Projection has been asked for
// since the last TakeDemand, each once, and clears the log.
func (s *Store) TakeDemand() []Demand { return s.demand.Take() }

// Replay reads each demanded projection as Projection would, on behalf of
// another kernel that read it: one the index maintains has its idle count
// reset, a missing one is computed and maintained from then on. A demand
// naming no index of the store, or positions the index does not have, is
// skipped, and so is one whose computation exceeds the node budget (the
// kernel's error is cleared). Replay logs no demand of its own and counts no
// read.
func (s *Store) Replay(ds []Demand) {
	for _, d := range ds {
		ix := s.indices[d.Index]
		if ix == nil || CheckKeeps([][]int{d.Keep}, len(ix.cols)) != nil {
			continue
		}
		if p := ix.lookup(d.Keep); p != nil {
			p.idle = 0
		} else if ix.compute(d.Keep) == bdd.Invalid {
			s.kernel.ClearErr()
		}
	}
}

// Demand names a projection some kernel read: the index and the positions
// into its columns that the projection keeps.
type Demand struct {
	Index string
	Keep  []int
}

// DemandSet collects demands, each (index, positions) pair once. The zero
// value is empty and ready to use.
type DemandSet struct {
	m   map[string]Demand
	key []byte // scratch for the key of the demand being added
}

// Add records a demand for the projection of the named index onto keep.
func (s *DemandSet) Add(index string, keep []int) {
	s.key = append(s.key[:0], index...)
	s.key = append(s.key, 0)
	for _, pos := range keep {
		s.key = binary.AppendUvarint(s.key, uint64(pos))
	}
	if _, ok := s.m[string(s.key)]; ok {
		return
	}
	if s.m == nil {
		s.m = make(map[string]Demand)
	}
	s.m[string(s.key)] = Demand{Index: index, Keep: slices.Clone(keep)}
}

// Take returns the recorded demands in key order, so their replay is
// deterministic, and empties the set.
func (s *DemandSet) Take() []Demand {
	if len(s.m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Demand, len(keys))
	for i, k := range keys {
		out[i] = s.m[k]
	}
	s.m = nil
	return out
}

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
	// projections are the maintained projections callers asked for, in the
	// order they were first asked for, so maintenance is deterministic.
	projections []*projection
	// full is set when the index covers every column of its table, whose
	// own multiset of rows then says how many rows carry a tuple.
	full bool
	// rows counts the table's rows by their indexed codes, so that Apply
	// knows whether another row still holds a deleted row's tuple; counted
	// on the first batch that deletes, and never when full is set.
	rows counts
}

// projection is the index existentially projected onto some of its columns.
type projection struct {
	keep    []int         // positions into the index's columns, ascending
	doms    []*fdd.Domain // the blocks at keep
	root    bdd.Ref       // pinned
	rows    counts        // the table's rows by their codes at keep
	moved   bool          // Apply has moved it since it was computed
	adopted bool          // Adopt or Rebind took it in rather than computing it
	idle    int           // rows Apply moved it by since the last read
}

// Projected is a maintained projection as it leaves or enters an index: the
// positions into the index's columns it keeps, ascending, and its root.
type Projected struct {
	Keep []int
	Root bdd.Ref
}

// CheckKeeps reports whether keeps can name the maintained projections of an
// index of ncols columns: each list strictly ascending inside 0..ncols-1 and
// shorter than ncols (keeping every column is the index itself), and no list
// twice.
func CheckKeeps(keeps [][]int, ncols int) error {
	for i, keep := range keeps {
		if len(keep) >= ncols {
			return fmt.Errorf("index: a projection keeps %d of %d columns", len(keep), ncols)
		}
		for j, pos := range keep {
			if pos < 0 || pos >= ncols || (j > 0 && keep[j-1] >= pos) {
				return fmt.Errorf("index: projection positions %v are not ascending inside 0..%d", keep, ncols-1)
			}
		}
		for _, prev := range keeps[:i] {
			if slices.Equal(prev, keep) {
				return fmt.Errorf("index: projection onto %v listed twice", keep)
			}
		}
	}
	return nil
}

// counts counts the rows of an index's table by their codes at some of the
// table's columns: how many rows carry each combination of codes there. A
// key is the codes' relation.AppendKey, so no two combinations share one.
type counts struct {
	cols []int            // table columns, in key order
	n    map[string]int32 // nil until a batch needs it
}

// build counts the table's rows, unless they are counted already.
func (c *counts) build(t *relation.Table) {
	if c.n != nil {
		return
	}
	c.n = make(map[string]int32)
	var key []byte
	for _, r := range t.Rows() {
		key = relation.AppendKey(key[:0], r, c.cols)
		c.n[string(key)]++
	}
}

// apply moves the counts by a batch's moves.
func (c *counts) apply(moves []move) {
	for _, m := range moves {
		if n := c.n[m.key] + m.d; n == 0 {
			delete(c.n, m.key)
		} else {
			c.n[m.key] = n
		}
	}
}

// move is how far a batch moves the count of one key: d, the rows with the
// key it inserts less those it deletes. row is one of those rows.
type move struct {
	key string
	row []int32
	d   int32
}

// net nets a batch's rows by their codes at cols: one move per key, in the
// order the keys first appear. A key whose inserts and deletes cancel keeps
// its move, with d 0.
func net(cols []int, plus, minus [][]int32) []move {
	at := make(map[string]int)
	var moves []move
	var key []byte
	add := func(row []int32, d int32) {
		key = relation.AppendKey(key[:0], row, cols)
		i, ok := at[string(key)]
		if !ok {
			i = len(moves)
			at[string(key)] = i
			moves = append(moves, move{key: string(key), row: row})
		}
		moves[i].d += d
	}
	for _, row := range plus {
		add(row, 1)
	}
	for _, row := range minus {
		add(row, -1)
	}
	return moves
}

// crossings picks the moves whose count crosses zero and returns their codes
// at cols: Δ⁺, the tuples whose count leaves 0, and Δ⁻, those whose count
// falls to 0. before gives a key's count ahead of the batch; nil means the
// batch deletes nothing, so every tuple it moves is in Δ⁺ (a set union
// with a tuple already there changes nothing).
func crossings(moves []move, cols []int, before func(move) int32) (plus, minus [][]int) {
	for _, m := range moves {
		var from int32
		if before != nil {
			from = before(m)
		}
		to := from + m.d
		if (from == 0) == (to == 0) {
			continue
		}
		tuple := make([]int, len(cols))
		for j, col := range cols {
			tuple[j] = int(m.row[col])
		}
		if to > 0 {
			plus = append(plus, tuple)
		} else {
			minus = append(minus, tuple)
		}
	}
	return plus, minus
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
	if err := checkLayout(name, t, cols, order); err != nil {
		return nil, err
	}
	ix := &Index{store: s, table: t, name: name, cols: cols, order: order, full: coversAll(cols, t.NumCols()), rows: counts{cols: cols}}
	// Allocate blocks in layout order; record them in schema order.
	ix.doms = make([]*fdd.Domain, len(cols))
	for _, pos := range order {
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
		s.kernel.GC()
		return nil, fmt.Errorf("index: building %q: %w", name, err)
	}
	ix.root = root
	s.kernel.Protect(root)
	s.indices[name] = ix
	return ix, nil
}

// checkLayout refuses an index layout whose columns are not t's, or whose
// order is not a permutation of the column positions: Adopt's layouts come
// from a snapshot's bytes.
func checkLayout(name string, t *relation.Table, cols, order []int) error {
	if len(order) != len(cols) {
		return fmt.Errorf("index: %q: order has %d entries for %d columns", name, len(order), len(cols))
	}
	for _, c := range cols {
		if c < 0 || c >= t.NumCols() {
			return fmt.Errorf("index: %q: column %d is not one of %s's %d", name, c, t.Name(), t.NumCols())
		}
	}
	seen := make([]bool, len(cols))
	for _, pos := range order {
		if pos < 0 || pos >= len(cols) || seen[pos] {
			return fmt.Errorf("index: %q: order is not a permutation", name)
		}
		seen[pos] = true
	}
	return nil
}

// coversAll reports whether cols names each of a table's ncols columns.
func coversAll(cols []int, ncols int) bool {
	seen := make([]bool, ncols)
	for _, c := range cols {
		seen[c] = true
	}
	return !slices.Contains(seen, false)
}

// Adopt registers an index whose BDD was built elsewhere: the replication
// path imports a primary index root into a replica kernel with
// bdd.Kernel.Import and adopts it here, together with blocks reproduced through
// fdd.Space.AdoptDomain. doms is parallel to cols (schema order), order is
// the block layout permutation exactly as in Build, and root must be a Ref
// of this store's kernel. The root is protected like a built index's, and so
// is each of projs, the projections of root the source index maintained:
// they answer Projection from then on as if computed here. The caller checks
// projs' positions (CheckKeeps) first.
func (s *Store) Adopt(name string, t *relation.Table, cols []int, order []int, doms []*fdd.Domain, root bdd.Ref, projs []Projected) (*Index, error) {
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
	if err := checkLayout(name, t, cols, order); err != nil {
		return nil, err
	}
	if root == bdd.Invalid {
		return nil, fmt.Errorf("index: %q: adopting an Invalid root", name)
	}
	ix := &Index{store: s, table: t, name: name, cols: cols, doms: doms, order: order, root: root,
		full: coversAll(cols, t.NumCols()), rows: counts{cols: cols}}
	s.kernel.Protect(root)
	ix.adopt(projs)
	s.indices[name] = ix
	return ix, nil
}

// Rebind points an adopted index at a newer image of the same projection: t
// is the table's counterpart in a newer catalog, root its BDD over the same
// blocks and projs the projections of root the source index maintained (see
// Adopt), all already transferred into this store's kernel. The new roots are
// pinned before the old ones are released, so what they share never becomes
// collectable in between. The old image's projections, and the row count,
// are dropped: projs replaces them, and a projection not among projs is
// computed afresh on its next read. The caller checks projs' positions
// (CheckKeeps) first.
func (ix *Index) Rebind(t *relation.Table, root bdd.Ref, projs []Projected) {
	k := ix.store.kernel
	k.Protect(root)
	old := ix.projections
	ix.projections = nil
	ix.adopt(projs)
	for _, p := range old {
		k.Unprotect(p.root)
	}
	k.Unprotect(ix.root)
	ix.table, ix.root, ix.rows.n = t, root, nil
}

// adopt pins projs and appends them to the index's projections.
func (ix *Index) adopt(projs []Projected) {
	for _, pr := range projs {
		p := ix.newProjection(pr.Keep)
		p.root, p.adopted = pr.Root, true
		ix.store.kernel.Protect(p.root)
		ix.projections = append(ix.projections, p)
	}
}

// Projections lists the index's maintained projections in the order they
// were first asked for: what an export ships beside Root.
func (ix *Index) Projections() []Projected {
	out := make([]Projected, len(ix.projections))
	for i, p := range ix.projections {
		out[i] = Projected{Keep: slices.Clone(p.keep), Root: p.root}
	}
	return out
}

// forget unpins and drops every projection and the row count: what is
// derived from the root and the table, and rebuilt from them on demand.
func (ix *Index) forget() {
	for _, p := range ix.projections {
		ix.store.kernel.Unprotect(p.root)
	}
	ix.projections, ix.rows.n = nil, nil
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
	ix.forget()
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
	if err := ix.checkFits(row); err != nil {
		return nil, err
	}
	proj := make([]int, len(ix.cols))
	for j, c := range ix.cols {
		proj[j] = int(row[c])
	}
	return proj, nil
}

// checkFits reports a code of row that does not fit its block: the column
// dictionary grew past a power of two since the index was built.
func (ix *Index) checkFits(row []int32) error {
	for j, c := range ix.cols {
		if int(row[c]) >= 1<<ix.doms[j].Bits() {
			return fmt.Errorf("index: %q: value code %d overflows the %d-bit block of column %d; rebuild the index",
				ix.name, row[c], ix.doms[j].Bits(), c)
		}
	}
	return nil
}

// Change is a batch's change to an index, computed by Apply and installed by
// Commit: the index's new root and each maintained projection's, with the
// moves of their counts.
type Change struct {
	ix    *Index
	root  bdd.Ref
	rows  []move // moves of the index's row count; nil when it has none
	n     int    // rows the batch inserts and deletes
	projs []projectionChange
}

// projectionChange is a batch's change to one maintained projection. A root
// of bdd.Invalid forgets the projection.
type projectionChange struct {
	root  bdd.Ref
	moves []move
}

// Apply computes how a batch changes the index: plus are the rows the batch
// inserts into the table, minus the rows it deletes, repeats included. It
// nets them by their indexed codes and keeps the tuples whose count crosses
// zero, Δ⁺ upward and Δ⁻ downward, so the new root is (root ∨ Δ⁺) ∧ ¬Δ⁻:
// one fdd.Relation per direction, one Or and one Diff. The index has set
// semantics while tables are bags, so a deleted tuple stays while another
// row carries it; an index over every column reads that from the table
// (relation.Table.Count), any other from its own count of the table's rows,
// built on the first batch that deletes. Each maintained projection moves
// the same way, over the crossings of its own count.
//
// Apply changes nothing; Commit installs the result. The table must not
// have taken the batch yet: Apply reads the counts ahead of it. The caller
// checks that the batch is valid (every deleted row is in the table). Codes
// that do not fit the blocks allocated at build time (the column dictionary
// grew past a power of two) are an error, and so is a root that exceeds the
// node budget; the kernel's error is then cleared. A projection whose
// upkeep exceeds the budget is forgotten instead, and so is one that no
// read has used for more updates than the table will have rows: its upkeep
// since then has cost more count moves than the recount that rebuilding it
// takes, and an unread projection would otherwise stay pinned, and charge
// every update, forever. Its next read computes it afresh.
func (ix *Index) Apply(plus, minus [][]int32) (*Change, error) {
	for _, rows := range [][][]int32{plus, minus} {
		for _, row := range rows {
			if err := ix.checkFits(row); err != nil {
				return nil, err
			}
		}
	}
	k := ix.store.kernel
	ch := &Change{ix: ix, n: len(plus) + len(minus)}
	moves := net(ix.cols, plus, minus)
	var before func(move) int32
	switch {
	case ix.full:
		if len(minus) > 0 {
			before = func(m move) int32 { return int32(ix.table.Count(m.row)) }
		}
	default:
		if len(minus) > 0 {
			ix.rows.build(ix.table)
		}
		if ix.rows.n != nil {
			before = func(m move) int32 { return ix.rows.n[m.key] }
			ch.rows = moves
		}
	}
	ch.root = ix.delta(ix.root, ix.doms, moves, ix.cols, before)
	if ch.root == bdd.Invalid {
		err := k.Err()
		k.ClearErr()
		return nil, fmt.Errorf("index: updating %q: %w", ix.name, err)
	}
	rows := ix.table.Len() + len(plus) - len(minus)
	for _, p := range ix.projections {
		pc := projectionChange{root: bdd.Invalid}
		if p.idle+ch.n <= rows {
			p.rows.build(ix.table)
			pc.moves = net(p.rows.cols, plus, minus)
			pc.root = ix.delta(p.root, p.doms, pc.moves, p.rows.cols,
				func(m move) int32 { return p.rows.n[m.key] })
			k.ClearErr()
		}
		ch.projs = append(ch.projs, pc)
	}
	return ch, nil
}

// delta moves f, a set of tuples over doms, by the moves that cross zero in
// counts that before reads: (f ∨ Δ⁺) ∧ ¬Δ⁻, each direction built with one
// fdd.Relation. Over no blocks the only tuple is the empty one, whose
// relation is True. It returns bdd.Invalid, with the kernel's error set,
// when the node budget runs out.
func (ix *Index) delta(f bdd.Ref, doms []*fdd.Domain, moves []move, cols []int, before func(move) int32) bdd.Ref {
	k := ix.store.kernel
	rel := func(tuples [][]int) bdd.Ref {
		if len(doms) == 0 {
			return bdd.True
		}
		r, _ := fdd.Relation(doms, tuples) // Invalid past the budget; Apply checked the codes
		return r
	}
	plus, minus := crossings(moves, cols, before)
	if len(plus) > 0 {
		f = k.Or(f, rel(plus))
	}
	if len(minus) > 0 {
		f = k.Diff(f, rel(minus))
	}
	return f
}

// Commit installs a change Apply computed: the index's new root, and each
// maintained projection's unless Apply forgot it. Call it once, after the
// table took the batch's rows, with no other change to the index in between.
func (ch *Change) Commit() {
	ix := ch.ix
	k := ix.store.kernel
	if next := ch.root; next != ix.root {
		k.Protect(next)
		k.Unprotect(ix.root)
		ix.root = next
	}
	ix.rows.apply(ch.rows)
	kept := ix.projections[:0]
	for i, p := range ix.projections {
		pc := ch.projs[i]
		if pc.root == bdd.Invalid {
			k.Unprotect(p.root)
			continue
		}
		p.rows.apply(pc.moves)
		p.idle += ch.n
		p.moved = true
		k.Protect(pc.root)
		k.Unprotect(p.root)
		p.root = pc.root
		kept = append(kept, p)
	}
	ix.projections = kept
}

// Projection returns the index existentially projected onto the columns at
// the kept positions (positions into Columns(), ascending). The first call
// for a column set computes it with fdd.Exists and pins it, unless Adopt or
// Rebind took it in; Apply maintains it from then on, so later calls do no
// kernel work until Rebind or Drop forgets it, or it goes unread for more
// updates than the table has rows (see Apply). Every call is logged for
// TakeDemand. Keeping every column returns Root(); keeping none returns True
// or False, whether the table has a row. When the first computation exceeds
// the node budget, Projection returns bdd.Invalid with the kernel's error
// set, as the kernel's own operations do.
func (ix *Index) Projection(keep []int) bdd.Ref {
	if len(keep) == len(ix.cols) {
		return ix.root
	}
	ix.store.demand.Add(ix.name, keep)
	p := ix.lookup(keep)
	if p == nil {
		return ix.compute(keep)
	}
	if p.moved {
		ix.store.reads.Maintained++
	}
	if p.adopted {
		ix.store.reads.Adopted++
	}
	p.idle = 0
	return p.root
}

// lookup returns the projection onto keep that the index holds, or nil.
func (ix *Index) lookup(keep []int) *projection {
	for _, p := range ix.projections {
		if slices.Equal(p.keep, keep) {
			return p
		}
	}
	return nil
}

// compute projects the root onto keep with fdd.Exists and holds the result
// as a maintained projection. It returns bdd.Invalid, with the kernel's
// error set, when the projection exceeds the node budget.
func (ix *Index) compute(keep []int) bdd.Ref {
	p := ix.newProjection(keep)
	var drop []*fdd.Domain
	for j, d := range ix.doms {
		if !slices.Contains(keep, j) {
			drop = append(drop, d)
		}
	}
	if p.root = fdd.Exists(ix.root, drop...); p.root == bdd.Invalid {
		return bdd.Invalid
	}
	ix.store.kernel.Protect(p.root)
	ix.projections = append(ix.projections, p)
	return p.root
}

// newProjection is the projection onto keep without its root: its blocks
// and the columns its row count keys on.
func (ix *Index) newProjection(keep []int) *projection {
	p := &projection{keep: slices.Clone(keep)}
	for _, j := range keep {
		p.doms = append(p.doms, ix.doms[j])
		p.rows.cols = append(p.rows.cols, ix.cols[j])
	}
	return p
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
