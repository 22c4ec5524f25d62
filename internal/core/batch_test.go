package core_test

// batch_test.go holds Apply's property test: a batch netted into one BDD per
// direction, per index and per maintained projection, must end where
// applying its tuples one at a time ends. The per-tuple path lives on here
// only, as the reference.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/fdd"
	"repro/internal/index"
	"repro/internal/relation"
)

// TestApplyBatchMatchesPerTuple runs random batches over three tables that
// share domains: repeated tuples, inserts and deletes of one tuple in one
// batch, deletes of absent tuples, new values that overflow an index block,
// unknown ops and tables, wrong arities. The reference replays each batch
// one tuple at a time from the state before it, as Apply did before batches
// were netted:
// it refuses a tuple before the dictionary or the table takes it, appends an
// insert, removes a delete's first equal row by moving the last row into its
// place, and moves each index and each maintained projection by one minterm
// per tuple whose count crosses zero, forgetting a projection unread for
// more updates than its table has rows. Apply must then produce, in the same
// kernel, the reference's roots and projections, its table rows in order,
// its dictionary sizes, its applied prefix and its error.
//
// Some batches run under a node budget a little above the live nodes. Such
// a batch either aborts on an index root, and then must apply nothing and
// report 0, or it must match the reference, except that a projection whose
// upkeep ran out of budget is forgotten.
func TestApplyBatchMatchesPerTuple(t *testing.T) {
	cat := relation.NewCatalog()
	tables := map[string][]relation.Column{
		"R": {{Name: "a", Domain: "D1"}, {Name: "b", Domain: "D2"}, {Name: "c", Domain: "D3"}},
		"S": {{Name: "x", Domain: "D1"}, {Name: "y", Domain: "D2"}},
		"U": {{Name: "z", Domain: "D2"}},
	}
	names := []string{"R", "S", "U"}
	for _, name := range names {
		if _, err := cat.CreateTable(name, tables[name]); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(42))
	// D1 gets 5 values (a 3-bit block), D2 3 (2 bits), D3 2 (1 bit), so new
	// values fit D1 a few times, D2 once and D3 never.
	sizes := map[string]int{"D1": 5, "D2": 3, "D3": 2}
	for _, d := range []string{"D1", "D2", "D3"} {
		for i := 0; i < sizes[d]; i++ {
			cat.Domain(d).Intern(fmt.Sprintf("%s_%d", d, i))
		}
	}
	randomRow := func(tbl *relation.Table) []string {
		vals := make([]string, tbl.NumCols())
		for c := range vals {
			d := tbl.ColumnDomain(c)
			vals[c] = d.Value(int32(rng.Intn(d.Size())))
		}
		return vals
	}
	for name, n := range map[string]int{"R": 12, "S": 4, "U": 3} {
		tbl := cat.Table(name)
		for i := 0; i < n; i++ {
			tbl.Insert(randomRow(tbl)...)
		}
	}
	chk := core.New(cat, core.Options{NodeBudget: -1})
	for _, ix := range []struct {
		name, table string
		cols        []string
	}{{"R", "R", nil}, {"Rab", "R", []string{"a", "b"}}, {"S", "S", nil}} {
		if _, err := chk.BuildIndex(ix.name, ix.table, ix.cols, core.OrderSchema); err != nil {
			t.Fatal(err)
		}
	}
	store := chk.Store()
	k := store.Kernel()
	keeps := map[string][][]int{"R": {{0}, {1, 2}, {}}, "Rab": {{1}}, "S": {{0}}}
	// idle models each projection's count of rows applied since its last
	// read, which the index keeps to itself.
	idle := map[string]int{}
	idleKey := func(ix string, keep []int) string { return fmt.Sprint(ix, keep) }

	fresh := 0
	var rootAborts, budgetedMatches, refusals int
	for round := 0; round < 400; round++ {
		if rng.Intn(3) == 0 { // read every projection, so each is maintained
			for ix, ks := range keeps {
				for _, keep := range ks {
					if store.Index(ix).Projection(keep) == bdd.Invalid {
						t.Fatal("projection exceeded an unlimited budget")
					}
					idle[idleKey(ix, keep)] = 0
				}
			}
		}
		ups := randomBatch(rng, cat, names, &fresh)
		before := snapshotState(store, cat)
		budgeted := rng.Intn(4) == 0
		if budgeted {
			k.SetBudget(k.Size() + 1 + rng.Intn(30))
		}
		n, err := chk.Apply(ups)
		k.SetBudget(0)
		if k.Err() != nil {
			t.Fatalf("round %d: Apply left the kernel's error set: %v", round, k.Err())
		}
		if err != nil && !errors.Is(err, bdd.ErrBudget) {
			refusals++
		}
		got := snapshotState(store, cat)
		// The reference runs after Apply, so that the nodes it builds do not
		// make Apply's fit the budget.
		ref := perTuple(t, chk, before, idle, idleKey, ups)
		switch {
		case budgeted && errors.Is(err, bdd.ErrBudget):
			rootAborts++
			if n != 0 {
				t.Fatalf("round %d: a batch aborted on the budget reports %d applied", round, n)
			}
			if msg := before.diff(got, false); msg != "" {
				t.Fatalf("round %d: a batch aborted on the budget changed the state: %s", round, msg)
			}
		default:
			if n != ref.n || fmt.Sprint(err) != fmt.Sprint(ref.err) {
				t.Fatalf("round %d: Apply(%v) = (%d, %v), the reference (%d, %v)", round, ups, n, err, ref.n, ref.err)
			}
			if msg := ref.diff(got, budgeted); msg != "" {
				t.Fatalf("round %d: Apply(%v): %s", round, ups, msg)
			}
			if budgeted {
				budgetedMatches++
			}
			for key, v := range ref.idle {
				idle[key] = v
			}
		}
		ref.release(k)
		before.release(k)
		got.release(k)
	}
	t.Logf("%d batches refused a tuple, %d aborted on a root under budget, %d budgeted ones matched", refusals, rootAborts, budgetedMatches)
	if refusals == 0 || rootAborts == 0 || budgetedMatches == 0 {
		t.Fatal("the batches missed a case")
	}
}

// randomBatch draws one to eight updates, most of them valid.
func randomBatch(rng *rand.Rand, cat *relation.Catalog, names []string, fresh *int) []core.Update {
	var ups []core.Update
	valuesOf := func(tbl *relation.Table, row []int32) []string {
		vals := make([]string, len(row))
		for c, code := range row {
			vals[c] = tbl.ColumnDomain(c).Value(code)
		}
		return vals
	}
	for i, n := 0, 1+rng.Intn(8); i < n; i++ {
		tbl := cat.Table(names[rng.Intn(len(names))])
		var inserts []core.Update
		for _, u := range ups {
			if u.Op == core.UpdateInsert && u.Table == tbl.Name() {
				inserts = append(inserts, u)
			}
		}
		switch r := rng.Intn(80); {
		case r == 0:
			ups = append(ups, core.Update{Table: tbl.Name(), Op: "upsert", Values: make([]string, tbl.NumCols())})
		case r == 1:
			ups = append(ups, core.Update{Table: "NOSUCH", Op: core.UpdateInsert, Values: []string{"x"}})
		case r == 2:
			ups = append(ups, core.Update{Table: tbl.Name(), Op: core.UpdateDelete, Values: make([]string, tbl.NumCols()+1)})
		case r < 20 && len(inserts) > 0: // delete a tuple the batch inserts
			u := inserts[rng.Intn(len(inserts))]
			ups = append(ups, core.Update{Table: u.Table, Op: core.UpdateDelete, Values: u.Values})
		case r < 28 && len(ups) > 0: // repeat an update
			ups = append(ups, ups[rng.Intn(len(ups))])
		case r < 44 && tbl.Len() > 0: // delete a row, perhaps one an earlier delete took
			ups = append(ups, core.Update{Table: tbl.Name(), Op: core.UpdateDelete, Values: valuesOf(tbl, tbl.Row(rng.Intn(tbl.Len())))})
		default: // insert, now and then with a value new to its dictionary
			vals := make([]string, tbl.NumCols())
			for c := range vals {
				d := tbl.ColumnDomain(c)
				if rng.Intn(30) == 0 {
					*fresh++
					vals[c] = fmt.Sprintf("new%d", *fresh)
				} else {
					vals[c] = d.Value(int32(rng.Intn(d.Size())))
				}
			}
			op := core.UpdateInsert
			if r == 79 { // a delete of a tuple that is most likely absent
				op = core.UpdateDelete
			}
			ups = append(ups, core.Update{Table: tbl.Name(), Op: op, Values: vals})
		}
	}
	return ups
}

// state is what Apply changes: the tables' rows in order, the dictionary
// sizes, and each index's root and maintained projections, pinned while the
// state is held.
type state struct {
	rows  map[string][][]int32
	dicts map[string][]string
	roots map[string]bdd.Ref
	projs map[string][]index.Projected
	// The reference's outcome: applied prefix, error, and the idle counts
	// of the projections it kept.
	n    int
	err  error
	idle map[string]int
	k    *bdd.Kernel
}

func snapshotState(store *index.Store, cat *relation.Catalog) *state {
	s := &state{
		rows:  map[string][][]int32{},
		dicts: map[string][]string{},
		roots: map[string]bdd.Ref{},
		projs: map[string][]index.Projected{},
		k:     store.Kernel(),
	}
	for _, tbl := range cat.Tables() {
		s.rows[tbl.Name()] = slices.Clone(tbl.Rows())
	}
	for _, d := range cat.Domains() {
		s.dicts[d.Name()] = slices.Clone(d.Values())
	}
	for _, name := range store.Names() {
		ix := store.Index(name)
		s.roots[name] = s.k.Protect(ix.Root())
		s.projs[name] = ix.Projections()
		for _, p := range s.projs[name] {
			s.k.Protect(p.Root)
		}
	}
	return s
}

// release unpins the state's roots.
func (s *state) release(k *bdd.Kernel) {
	for name, root := range s.roots {
		k.Unprotect(root)
		for _, p := range s.projs[name] {
			k.Unprotect(p.Root)
		}
	}
}

// diff describes how got differs from s, or returns "". With lossy set, got
// may lack projections s has: a budget aborted their upkeep.
func (s *state) diff(got *state, lossy bool) string {
	for name, rows := range s.rows {
		if !slices.EqualFunc(rows, got.rows[name], slices.Equal[[]int32]) {
			return fmt.Sprintf("table %s holds %v, want %v", name, got.rows[name], rows)
		}
	}
	for name, vals := range s.dicts {
		if len(got.dicts[name]) != len(vals) {
			return fmt.Sprintf("domain %s has %d values, want %d", name, len(got.dicts[name]), len(vals))
		}
	}
	for name, root := range s.roots {
		if got.roots[name] != root {
			return fmt.Sprintf("index %s has root %d, want %d", name, got.roots[name], root)
		}
		want := s.projs[name]
		for _, p := range got.projs[name] {
			i := slices.IndexFunc(want, func(q index.Projected) bool { return slices.Equal(q.Keep, p.Keep) })
			if i < 0 {
				return fmt.Sprintf("index %s maintains a projection onto %v it should have forgotten", name, p.Keep)
			}
			if want[i].Root != p.Root {
				return fmt.Sprintf("index %s's projection onto %v is %d, want %d", name, p.Keep, p.Root, want[i].Root)
			}
		}
		if !lossy && len(got.projs[name]) != len(want) {
			return fmt.Sprintf("index %s maintains %d projections, want %d", name, len(got.projs[name]), len(want))
		}
	}
	return ""
}

// perTuple applies ups one tuple at a time to a copy of before, in the
// checker's kernel, and returns the state it ends in. idle holds the idle
// counts of the projections before the batch.
func perTuple(t *testing.T, chk *core.Checker, before *state, idle map[string]int, idleKey func(string, []int) string, ups []core.Update) *state {
	t.Helper()
	store, cat := chk.Store(), chk.Catalog()
	k := store.Kernel()
	s := &state{
		rows:  map[string][][]int32{},
		dicts: map[string][]string{},
		roots: map[string]bdd.Ref{},
		projs: map[string][]index.Projected{},
		idle:  map[string]int{},
		k:     k,
	}
	for name, rows := range before.rows {
		s.rows[name] = slices.Clone(rows)
	}
	for name, vals := range before.dicts {
		s.dicts[name] = slices.Clone(vals)
	}
	for name, root := range before.roots {
		s.roots[name] = root
		s.projs[name] = slices.Clone(before.projs[name])
		for _, p := range s.projs[name] {
			s.idle[idleKey(name, p.Keep)] = idle[idleKey(name, p.Keep)]
		}
	}
	// The narrowest block over each domain, ties to the first index name.
	type block struct {
		index string
		bits  int
	}
	blocks := map[string]block{}
	for _, name := range store.Names() {
		ix := store.Index(name)
		for j, col := range ix.Columns() {
			d := ix.Table().ColumnDomain(col).Name()
			if b, ok := blocks[d]; !ok || ix.Domains()[j].Bits() < b.bits {
				blocks[d] = block{name, ix.Domains()[j].Bits()}
			}
		}
	}
	count := func(rows [][]int32, cols []int, row []int32) int {
		n := 0
		for _, r := range rows {
			if !slices.ContainsFunc(cols, func(c int) bool { return r[c] != row[c] }) {
				n++
			}
		}
		return n
	}
	minterm := func(doms []*fdd.Domain, cols []int, row []int32) bdd.Ref {
		vals := make([]int, len(cols))
		for j, c := range cols {
			vals[j] = int(row[c])
		}
		return k.Minterm(fdd.Tuple(doms, vals))
	}
	for i, u := range ups {
		err := func() error {
			if u.Op != core.UpdateInsert && u.Op != core.UpdateDelete {
				return fmt.Errorf("core: unknown update op %q", u.Op)
			}
			tbl := cat.Table(u.Table)
			if tbl == nil {
				return fmt.Errorf("core: unknown table %q", u.Table)
			}
			del := u.Op == core.UpdateDelete
			if len(u.Values) != tbl.NumCols() {
				verb := "insert into"
				if del {
					verb = "delete from"
				}
				return fmt.Errorf("core: %s %q with %d values, want %d", verb, u.Table, len(u.Values), tbl.NumCols())
			}
			row := make([]int32, len(u.Values))
			var added []string // domains the tuple adds a value to, in column order
			for c, val := range u.Values {
				d := tbl.ColumnDomain(c).Name()
				code := int32(slices.Index(s.dicts[d], val))
				if code < 0 {
					if del {
						return fmt.Errorf("core: value %q not present in %s column %d", val, u.Table, c)
					}
					code = int32(len(s.dicts[d]))
					s.dicts[d] = append(s.dicts[d], val)
					added = append(added, d)
				}
				if b, ok := blocks[d]; ok && !del && int(code) >= 1<<b.bits {
					for _, d := range added { // the refused tuple leaves no trace
						s.dicts[d] = s.dicts[d][:len(s.dicts[d])-1]
					}
					return fmt.Errorf("core: value %q (code %d) of %s column %d overflows the %d-bit block of index %q; rebuild the index",
						val, code, u.Table, c, b.bits, b.index)
				}
				row[c] = code
			}
			rows := s.rows[u.Table]
			if del {
				at := slices.IndexFunc(rows, func(r []int32) bool { return slices.Equal(r, row) })
				if at < 0 {
					return fmt.Errorf("core: tuple not found in %s", u.Table)
				}
				rows[at] = rows[len(rows)-1]
				rows = rows[:len(rows)-1]
			} else {
				rows = append(rows, row)
			}
			s.rows[u.Table] = rows
			for _, name := range store.Names() {
				ix := store.Index(name)
				if ix.Table().Name() != u.Table {
					continue
				}
				switch n := count(rows, ix.Columns(), row); {
				case !del:
					s.roots[name] = k.Or(s.roots[name], minterm(ix.Domains(), ix.Columns(), row))
				case n == 0:
					s.roots[name] = k.Diff(s.roots[name], minterm(ix.Domains(), ix.Columns(), row))
				}
				kept := s.projs[name][:0]
				for _, p := range s.projs[name] {
					key := idleKey(name, p.Keep)
					if s.idle[key]++; s.idle[key] > len(rows) {
						delete(s.idle, key)
						continue
					}
					var doms []*fdd.Domain
					var cols []int
					for _, j := range p.Keep {
						doms = append(doms, ix.Domains()[j])
						cols = append(cols, ix.Columns()[j])
					}
					switch n := count(rows, cols, row); {
					case !del && n == 1:
						p.Root = k.Or(p.Root, minterm(doms, cols, row))
					case del && n == 0:
						p.Root = k.Diff(p.Root, minterm(doms, cols, row))
					}
					kept = append(kept, p)
				}
				s.projs[name] = kept
			}
			return nil
		}()
		if err != nil {
			s.err = fmt.Errorf("core: update %d: %w", i, err)
			break
		}
		s.n++
	}
	if k.Err() != nil {
		t.Fatalf("the reference ran out of an unlimited budget: %v", k.Err())
	}
	// Pin the outcome, which later Applies' safe points would collect.
	for name, root := range s.roots {
		k.Protect(root) // state.release unpins it
		for _, p := range s.projs[name] {
			k.Protect(p.Root)
		}
	}
	return s
}
