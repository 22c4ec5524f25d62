package index_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bdd"
	"repro/internal/fdd"
	"repro/internal/index"
	"repro/internal/relation"
)

// apply runs a batch through the index and its table as core.Apply does:
// Index.Apply, then the table takes the rows, then Commit. The table takes
// the inserts first, so every delete finds its row. An error leaves both as
// they were.
func apply(ix *index.Index, tbl *relation.Table, plus, minus [][]int32) error {
	ch, err := ix.Apply(plus, minus)
	if err != nil {
		return err
	}
	for _, row := range plus {
		tbl.InsertCodes(row)
	}
	for _, row := range minus {
		tbl.DeleteCodes(row)
	}
	ch.Commit()
	return nil
}

// one is a batch of one row.
func one(row []int32) [][]int32 { return [][]int32{row} }

func smallTable(t *testing.T) (*relation.Catalog, *relation.Table) {
	t.Helper()
	cat := relation.NewCatalog()
	tbl, err := cat.CreateTable("T", []relation.Column{
		{Name: "a"}, {Name: "b"}, {Name: "c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl.Insert("a1", "b1", "c1")
	tbl.Insert("a1", "b2", "c2")
	tbl.Insert("a2", "b1", "c2")
	return cat, tbl
}

func TestBuildAndContains(t *testing.T) {
	_, tbl := smallTable(t)
	store := index.NewStore(index.Options{})
	ix, err := store.Build("T", tbl, []int{0, 1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tbl.Len(); i++ {
		if !ix.Contains(tbl.Row(i)) {
			t.Fatalf("row %d missing from index", i)
		}
	}
	// A tuple not in the table.
	if ix.Contains([]int32{1, 1, 0}) { // (a2, b2, c1)
		t.Fatal("index contains a non-tuple")
	}
	if got := store.Kernel().SatCount(ix.Root()); got != 3 {
		t.Fatalf("index has %v tuples, want 3", got)
	}
}

func TestBuildProjectionDedupes(t *testing.T) {
	_, tbl := smallTable(t)
	store := index.NewStore(index.Options{})
	// Projection onto column a has 2 distinct values over 3 rows.
	ix, err := store.Build("Ta", tbl, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := store.Kernel().SatCount(ix.Root()); got != 2 {
		t.Fatalf("projection index has %v tuples, want 2", got)
	}
}

func TestBuildRejectsBadArgs(t *testing.T) {
	_, tbl := smallTable(t)
	store := index.NewStore(index.Options{})
	if _, err := store.Build("X", tbl, nil, nil); err == nil {
		t.Fatal("no columns accepted")
	}
	if _, err := store.Build("X", tbl, []int{0, 1}, []int{0}); err == nil {
		t.Fatal("wrong order length accepted")
	}
	if _, err := store.Build("X", tbl, []int{0, 1}, []int{0, 0}); err == nil {
		t.Fatal("non-permutation accepted")
	}
	if _, err := store.Build("X", tbl, []int{0}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Build("X", tbl, []int{0}, nil); err == nil {
		t.Fatal("duplicate index name accepted")
	}
}

func TestInsertDeleteMaintenance(t *testing.T) {
	_, tbl := smallTable(t)
	store := index.NewStore(index.Options{})
	ix, err := store.Build("T", tbl, []int{0, 1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := ix.Root()
	// (a2, b2, c1): values already interned, so the codes fit the blocks.
	row := []int32{1, 1, 0}
	if err := apply(ix, tbl, one(row), nil); err != nil {
		t.Fatal(err)
	}
	if !ix.Contains(row) {
		t.Fatal("inserted row missing")
	}
	if err := apply(ix, tbl, nil, one(row)); err != nil {
		t.Fatal(err)
	}
	if ix.Contains(row) {
		t.Fatal("deleted row still present")
	}
	// Canonicity: after insert+delete the root is the original ref.
	if ix.Root() != before {
		t.Fatal("insert+delete did not round-trip to the identical BDD")
	}
	// Bag semantics: deleting one of two equal rows keeps the tuple.
	dup := append([]int32(nil), tbl.Row(0)...)
	if err := apply(ix, tbl, one(dup), nil); err != nil {
		t.Fatal(err)
	}
	if err := apply(ix, tbl, nil, one(dup)); err != nil {
		t.Fatal(err)
	}
	if !ix.Contains(dup) {
		t.Fatal("deleting one of two equal rows removed the tuple")
	}
	// One batch inserting a row and deleting it nets to nothing, and so does
	// one deleting a row it inserts twice.
	if err := apply(ix, tbl, one(row), one(row)); err != nil {
		t.Fatal(err)
	}
	if err := apply(ix, tbl, [][]int32{row, row}, one(row)); err != nil {
		t.Fatal(err)
	}
	if !ix.Contains(row) {
		t.Fatal("a row inserted twice and deleted once left the index")
	}
}

func TestInsertDeleteRandomizedAgainstRebuild(t *testing.T) {
	cat := relation.NewCatalog()
	tbl, err := cat.CreateTable("R", []relation.Column{{Name: "a"}, {Name: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-intern domains so codes stay in range.
	for i := 0; i < 16; i++ {
		cat.Domain("a").Intern(string(rune('a' + i)))
		cat.Domain("b").Intern(string(rune('A' + i)))
	}
	rng := rand.New(rand.NewSource(3))
	store := index.NewStore(index.Options{})
	ix, err := store.Build("R", tbl, []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	present := map[[2]int32]bool{}
	for step := 0; step < 300; step++ {
		a, b := int32(rng.Intn(16)), int32(rng.Intn(16))
		row := []int32{a, b}
		if present[[2]int32{a, b}] {
			if err := apply(ix, tbl, nil, one(row)); err != nil {
				t.Fatal(err)
			}
			delete(present, [2]int32{a, b})
		} else {
			if err := apply(ix, tbl, one(row), nil); err != nil {
				t.Fatal(err)
			}
			present[[2]int32{a, b}] = true
		}
		if got := store.Kernel().SatCount(ix.Root()); got != float64(len(present)) {
			t.Fatalf("step %d: index has %v tuples, want %d", step, got, len(present))
		}
	}
}

// TestProjectionMaintained runs random inserts and deletes, duplicate rows
// included, over a small table with a projection onto every column subset,
// the empty one too: after every step each maintained projection must be the
// projection of the index computed afresh. After Rebind a projection is
// computed afresh, not carried over. The wide table's codes take one, two
// and three bytes in the keys of the index's counts.
func TestProjectionMaintained(t *testing.T) {
	t.Run("narrow", func(t *testing.T) { testProjectionMaintained(t, 3, 4, []int32{0, 1, 2}) })
	t.Run("wide", func(t *testing.T) { testProjectionMaintained(t, 5, 1<<14+1, []int32{0, 128, 1 << 14}) })
}

// testProjectionMaintained draws the rows' codes from vals, each below
// dictSize: column j uses the first 2 + j%2 of them.
func testProjectionMaintained(t *testing.T, ncols, dictSize int, vals []int32) {
	cat := relation.NewCatalog()
	var schema []relation.Column
	all := make([]int, ncols)
	for j := range all {
		all[j] = j
		schema = append(schema, relation.Column{Name: fmt.Sprint("c", j)})
		for v := 0; v < dictSize; v++ {
			cat.Domain(fmt.Sprint("c", j)).Intern(fmt.Sprint(v))
		}
	}
	tbl, err := cat.CreateTable("R", schema)
	if err != nil {
		t.Fatal(err)
	}
	store := index.NewStore(index.Options{})
	ix, err := store.Build("R", tbl, all, nil)
	if err != nil {
		t.Fatal(err)
	}
	k := store.Kernel()
	var subsets [][]int // every subset of the positions, ascending
	for mask := 0; mask < 1<<ncols; mask++ {
		var keep []int
		for j := 0; j < ncols; j++ {
			if mask&(1<<j) != 0 {
				keep = append(keep, j)
			}
		}
		subsets = append(subsets, keep)
	}
	check := func(step int) {
		t.Helper()
		for _, keep := range subsets {
			var drop []*fdd.Domain
			for j, d := range ix.Domains() {
				if !slices.Contains(keep, j) {
					drop = append(drop, d)
				}
			}
			if got, want := ix.Projection(keep), fdd.Exists(ix.Root(), drop...); got != want {
				t.Fatalf("step %d: projection onto %v is %d, the index projected afresh %d", step, keep, got, want)
			}
		}
	}
	check(0)
	rng := rand.New(rand.NewSource(5))
	for step := 1; step <= 400; step++ {
		// Deletes pick a live row, so the table runs through empty and through
		// rows held two and three times.
		if tbl.Len() > 0 && rng.Intn(2) == 0 {
			row := append([]int32(nil), tbl.Row(rng.Intn(tbl.Len()))...)
			if err := apply(ix, tbl, nil, one(row)); err != nil {
				t.Fatal(err)
			}
		} else {
			row := make([]int32, ncols)
			for j := range row {
				row[j] = vals[rng.Intn(2+j%2)]
			}
			if err := apply(ix, tbl, one(row), nil); err != nil {
				t.Fatal(err)
			}
		}
		k.GC() // only the pins keep the projections alive
		check(step)
	}
	if store.Reads().Maintained == 0 {
		t.Fatal("no Projection call read a maintained projection")
	}

	// Rebind to a copy of the table without its rows: every projection must
	// follow the new root, none may survive from the old image.
	empty := cat.Clone().Table("R")
	for empty.Len() > 0 {
		empty.DeleteCodes(empty.Row(0))
	}
	ix.Rebind(empty, bdd.False, nil)
	reads := store.Reads().Maintained
	for _, keep := range subsets {
		if got := ix.Projection(keep); got != bdd.False {
			t.Fatalf("after Rebind to an empty table, the projection onto %v is %d, want False", keep, got)
		}
	}
	if store.Reads().Maintained != reads {
		t.Fatal("a projection maintained before Rebind answered after it")
	}
}

func TestBudgetOnBuild(t *testing.T) {
	cat := relation.NewCatalog()
	tbl, err := cat.CreateTable("R", []relation.Column{{Name: "a"}, {Name: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		tbl.Insert(string(rune(rng.Intn(64))), string(rune(rng.Intn(64))))
	}
	store := index.NewStore(index.Options{NodeBudget: 64})
	_, err = store.Build("R", tbl, []int{0, 1}, nil)
	if !errors.Is(err, bdd.ErrBudget) {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
	// The store remains usable: the kernel error was cleared and a small
	// build succeeds.
	small, err := cat.CreateTable("S", []relation.Column{{Name: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	small.Insert("x")
	if _, err := store.Build("S", small, []int{0}, nil); err != nil {
		t.Fatalf("store unusable after budget abort: %v", err)
	}
}

func TestDropReleasesNodes(t *testing.T) {
	_, tbl := smallTable(t)
	store := index.NewStore(index.Options{})
	ix, err := store.Build("T", tbl, []int{0, 1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	root := ix.Root()
	store.Drop("T")
	if store.Index("T") != nil {
		t.Fatal("index still registered")
	}
	store.Kernel().GC()
	// After GC the dropped root's nodes are gone; the easiest observable is
	// total live count returning to near-terminal levels.
	if store.Kernel().Size() > 8 {
		t.Fatalf("nodes not reclaimed: %d live", store.Kernel().Size())
	}
	_ = root
}

func TestCustomOrderChangesLayoutNotSemantics(t *testing.T) {
	_, tbl := smallTable(t)
	s1 := index.NewStore(index.Options{})
	s2 := index.NewStore(index.Options{})
	ix1, err := s1.Build("T", tbl, []int{0, 1, 2}, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := s2.Build("T", tbl, []int{0, 1, 2}, []int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tbl.Len(); i++ {
		if !ix1.Contains(tbl.Row(i)) || !ix2.Contains(tbl.Row(i)) {
			t.Fatal("row missing under custom order")
		}
	}
	if s1.Kernel().SatCount(ix1.Root()) != s2.Kernel().SatCount(ix2.Root()) {
		t.Fatal("orders disagree on tuple count")
	}
	// The layout really differs: block variables of column 2 come first.
	if ix2.Domain(2).Vars()[0] != 0 {
		t.Fatal("custom order did not place column 2 first")
	}
}

func TestValueOverflowReported(t *testing.T) {
	cat := relation.NewCatalog()
	tbl, err := cat.CreateTable("R", []relation.Column{{Name: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	tbl.Insert("v1")
	tbl.Insert("v2")
	store := index.NewStore(index.Options{})
	ix, err := store.Build("R", tbl, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Grow the dictionary past the 1-bit block capacity.
	row := []int32{cat.Domain("a").Intern("v3")}
	if err := apply(ix, tbl, one(row), nil); err == nil {
		t.Fatal("overflowing code accepted; index now silently wrong")
	}
	if tbl.Len() != 2 {
		t.Fatal("a refused batch reached the table")
	}
}

// TestOverflowedRowIsNotCounted: a batch holding a row whose code overflows
// its block is refused whole, and none of its rows moves a count. The
// refused batch deletes the real row (a1, b0), so it builds every count, and
// inserts (a0, b2), which shares a0 with the real row (a0, b1): had either
// moved a count, deleting the real rows afterwards would leave a tuple in
// the index or in a projection.
func TestOverflowedRowIsNotCounted(t *testing.T) {
	cat := relation.NewCatalog()
	tbl, err := cat.CreateTable("R", []relation.Column{{Name: "a"}, {Name: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	cat.Domain("b").Intern("b0")
	tbl.Insert("a0", "b1")
	tbl.Insert("a1", "b0")
	store := index.NewStore(index.Options{})
	ix, err := store.Build("R", tbl, []int{0, 1}, nil) // 1-bit blocks
	if err != nil {
		t.Fatal(err)
	}
	subsets := [][]int{{}, {0}, {1}}
	check := func(when string) {
		t.Helper()
		for _, keep := range subsets {
			var drop []*fdd.Domain
			for j, d := range ix.Domains() {
				if !slices.Contains(keep, j) {
					drop = append(drop, d)
				}
			}
			if got, want := ix.Projection(keep), fdd.Exists(ix.Root(), drop...); got != want {
				t.Fatalf("%s: projection onto %v is %d, the index projected afresh %d", when, keep, got, want)
			}
		}
	}
	check("built")
	root := ix.Root()
	over := []int32{0, cat.Domain("b").Intern("b2")} // codes (0, 2)
	if err := apply(ix, tbl, one(over), one([]int32{1, 0})); err == nil {
		t.Fatal("overflowing code accepted")
	}
	if ix.Root() != root || tbl.Len() != 2 {
		t.Fatal("a refused batch moved the index or the table")
	}
	check("after the refused batch")
	for _, row := range [][]int32{{1, 0}, {0, 1}} {
		if err := apply(ix, tbl, nil, one(row)); err != nil {
			t.Fatal(err)
		}
		if ix.Contains(row) {
			t.Fatalf("deleting %v left it in the index", row)
		}
		check(fmt.Sprintf("after deleting %v", row))
	}
	if ix.Root() != bdd.False {
		t.Fatal("the index still holds a tuple once every real row is gone")
	}
}

// TestUnreadProjectionIsForgotten: a projection that no read asks for over
// more updates than the table has rows is unpinned and dropped, so it stops
// charging updates; its next read computes it afresh. One that is read in
// between is kept.
func TestUnreadProjectionIsForgotten(t *testing.T) {
	cat := relation.NewCatalog()
	tbl, err := cat.CreateTable("R", []relation.Column{{Name: "a"}, {Name: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		cat.Domain("b").Intern(fmt.Sprint("b", i))
	}
	for i := 0; i < 6; i++ {
		tbl.Insert(fmt.Sprint("a", i), fmt.Sprint("b", i))
	}
	store := index.NewStore(index.Options{})
	ix, err := store.Build("R", tbl, []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	k := store.Kernel()
	keep := []int{1} // six of b's eight values: not True, so it has nodes
	// churn deletes and reinserts row 0 n times: 2n updates, 6 rows after.
	churn := func(n int) {
		for i := 0; i < n; i++ {
			row := append([]int32(nil), tbl.Row(0)...)
			if err := apply(ix, tbl, nil, one(row)); err != nil {
				t.Fatal(err)
			}
			if err := apply(ix, tbl, one(row), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	ix.Projection(keep)
	reads := store.Reads().Maintained
	for i := 1; i <= 2; i++ {
		churn(3) // 6 updates since the last read: not more than the 6 rows
		ix.Projection(keep)
		if store.Reads().Maintained != reads+i {
			t.Fatalf("read %d: a projection read after as many updates as rows was not kept", i)
		}
	}
	k.ClearCaches() // measure the pin, not what the caches keep alive
	k.GC()
	withProjection := k.Size()
	churn(4) // 8 updates
	k.ClearCaches()
	k.GC()
	if k.Size() >= withProjection {
		t.Fatalf("%d live nodes after the projection went unread, %d before: it is still pinned", k.Size(), withProjection)
	}
	ix.Projection(keep)
	if store.Reads().Maintained != reads+2 {
		t.Fatal("a projection unread for more updates than rows was kept")
	}
}

// TestProjectionBudgetAbortKeepsTheUpdate runs one-row batches under node
// budgets so tight that some abort in the upkeep of a projection after the
// index itself took the row: the batch must succeed and leave the kernel's
// error clear, and the projection must be forgotten, then computed afresh on
// its next read. A batch that aborts on the index's own root must report
// ErrBudget and change nothing.
func TestProjectionBudgetAbortKeepsTheUpdate(t *testing.T) {
	cat := relation.NewCatalog()
	tbl, err := cat.CreateTable("R", []relation.Column{{Name: "a"}, {Name: "b"}, {Name: "c"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		for _, col := range []string{"a", "b", "c"} {
			cat.Domain(col).Intern(fmt.Sprint(col, i))
		}
	}
	store := index.NewStore(index.Options{})
	ix, err := store.Build("R", tbl, []int{0, 1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	k := store.Kernel()
	keep := []int{0, 2}
	rng := rand.New(rand.NewSource(9))
	projectionAborts, rootAborts := 0, 0
	for i := 0; i < 300; i++ {
		ix.Projection(keep) // computed afresh after an abort dropped it
		row := []int32{int32(rng.Intn(16)), int32(rng.Intn(16)), int32(rng.Intn(16))}
		root, rows := ix.Root(), tbl.Len()
		k.SetBudget(k.Size() + 1 + rng.Intn(24))
		err := apply(ix, tbl, one(row), nil)
		k.SetBudget(0)
		if k.Err() != nil {
			t.Fatalf("insert %d left the kernel's error set: %v", i, k.Err())
		}
		if err != nil {
			if !errors.Is(err, bdd.ErrBudget) {
				t.Fatalf("insert %d: %v", i, err)
			}
			if ix.Root() != root || tbl.Len() != rows {
				t.Fatalf("insert %d aborted on the root but moved the index or the table", i)
			}
			rootAborts++
			// Insert it again, unbudgeted, as a caller that retries would.
			if err := apply(ix, tbl, one(row), nil); err != nil {
				t.Fatal(err)
			}
		} else if !ix.Contains(row) {
			t.Fatalf("insert %d succeeded without reaching the index", i)
		}
		reads := store.Reads().Maintained
		got := ix.Projection(keep)
		if err == nil && store.Reads().Maintained == reads {
			projectionAborts++ // the row reached the index, the projection was dropped
		}
		if want := fdd.Exists(ix.Root(), ix.Domains()[1]); got != want {
			t.Fatalf("insert %d: the projection is %d, the index projected afresh %d", i, got, want)
		}
	}
	t.Logf("%d inserts aborted in a projection's upkeep, %d on the index root", projectionAborts, rootAborts)
	if projectionAborts == 0 || rootAborts == 0 {
		t.Fatal("the budgets missed one of the two cases")
	}
}
