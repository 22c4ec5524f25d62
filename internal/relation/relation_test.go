package relation_test

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/relation"
)

func TestDomainInternAndLookup(t *testing.T) {
	cat := relation.NewCatalog()
	d := cat.Domain("city")
	if d.Size() != 0 {
		t.Fatal("fresh domain not empty")
	}
	a := d.Intern("Toronto")
	b := d.Intern("Oshawa")
	if a == b {
		t.Fatal("distinct values share a code")
	}
	if again := d.Intern("Toronto"); again != a {
		t.Fatal("re-intern changed the code")
	}
	if c, ok := d.Code("Toronto"); !ok || c != a {
		t.Fatal("Code lookup failed")
	}
	if _, ok := d.Code("nowhere"); ok {
		t.Fatal("unknown value resolved")
	}
	if d.Value(a) != "Toronto" || d.Value(b) != "Oshawa" {
		t.Fatal("Value decoding wrong")
	}
	if d.Size() != 2 {
		t.Fatalf("Size = %d, want 2", d.Size())
	}
}

func TestDomainSharingAcrossTables(t *testing.T) {
	cat := relation.NewCatalog()
	s, err := cat.CreateTable("STUDENT", []relation.Column{
		{Name: "id", Domain: "student_id"},
		{Name: "dept"},
	})
	if err != nil {
		t.Fatal(err)
	}
	takes, err := cat.CreateTable("TAKES", []relation.Column{
		{Name: "sid", Domain: "student_id"},
		{Name: "cid"},
	})
	if err != nil {
		t.Fatal(err)
	}
	r1 := s.Insert("s1", "CS")
	r2 := takes.Insert("s1", "c1")
	if r1[0] != r2[0] {
		t.Fatal("shared domain must give equal codes for equal values")
	}
	if s.ColumnDomain(0) != takes.ColumnDomain(0) {
		t.Fatal("shared domain objects differ")
	}
	// Unshared columns default to table-independent domains.
	if s.ColumnDomain(1) == takes.ColumnDomain(1) {
		t.Fatal("distinct default domains expected")
	}
}

func TestCreateTableErrors(t *testing.T) {
	cat := relation.NewCatalog()
	if _, err := cat.CreateTable("T", nil); err == nil {
		t.Fatal("empty schema accepted")
	}
	if _, err := cat.CreateTable("T", []relation.Column{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if _, err := cat.CreateTable("T", []relation.Column{{Name: "a"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateTable("T", []relation.Column{{Name: "a"}}); err == nil {
		t.Fatal("duplicate table accepted")
	}
}

func TestInsertDelete(t *testing.T) {
	cat := relation.NewCatalog()
	tbl, _ := cat.CreateTable("T", []relation.Column{{Name: "a"}, {Name: "b"}})
	tbl.Insert("x", "1")
	tbl.Insert("y", "2")
	tbl.Insert("x", "1") // duplicate: tables are bags
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	if !tbl.Delete("x", "1") {
		t.Fatal("delete failed")
	}
	if tbl.Len() != 2 {
		t.Fatal("delete removed wrong count")
	}
	if tbl.Delete("z", "9") {
		t.Fatal("deleting a missing tuple succeeded")
	}
	if !tbl.Delete("x", "1") || tbl.Delete("x", "1") {
		t.Fatal("bag semantics broken")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	cat := relation.NewCatalog()
	tbl, _ := cat.CreateTable("T", []relation.Column{{Name: "a"}, {Name: "b"}})
	tbl.Insert("x", "hello, world")
	tbl.Insert("y", `with "quotes"`)
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	cat2 := relation.NewCatalog()
	back, err := cat2.ReadCSV("T2", strings.NewReader(buf.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("Len = %d", back.Len())
	}
	if back.Value(0, 1) != "hello, world" || back.Value(1, 1) != `with "quotes"` {
		t.Fatal("values corrupted in round trip")
	}
	names := back.ColumnNames()
	if names[0] != "a" || names[1] != "b" {
		t.Fatalf("header corrupted: %v", names)
	}
}

// TestReadCSVFailureRegistersNothing: a malformed row after good ones fails
// the read without leaving a half-loaded table behind, so a retry under the
// same name succeeds.
func TestReadCSVFailureRegistersNothing(t *testing.T) {
	cat := relation.NewCatalog()
	if _, err := cat.ReadCSV("T", strings.NewReader("a,b\nx,1\ny\n"), nil); err == nil {
		t.Fatal("a row with one field too few was read")
	}
	if tbl := cat.Table("T"); tbl != nil {
		t.Fatalf("the failed read registered a table of %d rows", tbl.Len())
	}
	tbl, err := cat.ReadCSV("T", strings.NewReader("a,b\nx,1\ny,2\n"), nil)
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if tbl.Len() != 2 || len(cat.Tables()) != 1 {
		t.Fatalf("retry read %d rows into a catalog of %d tables", tbl.Len(), len(cat.Tables()))
	}
}

// FuzzReadCSV: ReadCSV takes arbitrary bytes without panicking, and a table
// it accepts writes back to CSV that reads to the same header and rows.
func FuzzReadCSV(f *testing.F) {
	f.Add("city,areacode,state\nToronto,416,Ontario\nNewark,973,NJ\n")
	f.Add("a,b\nx,\"hello, world\"\ny,\"with \"\"quotes\"\"\"\n")
	f.Add("a,b\nx,1\ny\n")
	f.Add("a\n\"\"\n")
	f.Add("\"\r\r\n\"")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		tbl, err := relation.NewCatalog().ReadCSV("T", strings.NewReader(data), nil)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tbl.WriteCSV(&buf); err != nil {
			t.Fatalf("writing an accepted table: %v", err)
		}
		back, err := relation.NewCatalog().ReadCSV("T", bytes.NewReader(buf.Bytes()), nil)
		if err != nil {
			t.Fatalf("re-reading %q: %v", buf.String(), err)
		}
		if !slices.Equal(back.ColumnNames(), tbl.ColumnNames()) || back.Len() != tbl.Len() {
			t.Fatalf("re-read header %q and %d rows, want %q and %d", back.ColumnNames(), back.Len(), tbl.ColumnNames(), tbl.Len())
		}
		for r := 0; r < tbl.Len(); r++ {
			for c := range tbl.ColumnNames() {
				if back.Value(r, c) != tbl.Value(r, c) {
					t.Fatalf("row %d column %d re-read as %q, want %q", r, c, back.Value(r, c), tbl.Value(r, c))
				}
			}
		}
	})
}

func TestReadCSVDomainOverride(t *testing.T) {
	cat := relation.NewCatalog()
	src := "city,state\nToronto,ON\n"
	t1, err := cat.ReadCSV("A", strings.NewReader(src), map[string]string{"city": "city"})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := cat.ReadCSV("B", strings.NewReader(src), map[string]string{"city": "city"})
	if err != nil {
		t.Fatal(err)
	}
	if t1.ColumnDomain(0) != t2.ColumnDomain(0) {
		t.Fatal("override should share the city domain")
	}
	if t1.ColumnDomain(1) == t2.ColumnDomain(1) {
		t.Fatal("non-overridden columns should not share")
	}
}

func TestClone(t *testing.T) {
	cat := relation.NewCatalog()
	tbl, _ := cat.CreateTable("T", []relation.Column{{Name: "a"}})
	tbl.Insert("x")
	cp, err := tbl.Clone("T2")
	if err != nil {
		t.Fatal(err)
	}
	cp.Insert("y")
	if tbl.Len() != 1 || cp.Len() != 2 {
		t.Fatal("clone shares row storage")
	}
	if cp.ColumnDomain(0) != tbl.ColumnDomain(0) {
		t.Fatal("clone must share domains")
	}
}

func TestTablesListing(t *testing.T) {
	cat := relation.NewCatalog()
	cat.CreateTable("B", []relation.Column{{Name: "x"}})
	cat.CreateTable("A", []relation.Column{{Name: "x"}})
	ts := cat.Tables()
	if len(ts) != 2 || ts[0].Name() != "B" || ts[1].Name() != "A" {
		t.Fatal("Tables must list in creation order")
	}
	if cat.Table("missing") != nil {
		t.Fatal("missing table should be nil")
	}
}

// TestDeleteCodesKeepsScanOrder runs random inserts and deletes over a table
// whose rows repeat often, against a scan: a delete removes the first equal
// row and moves the last row into its place, so the rows stay in the order
// the scan leaves them, and Count agrees with counting by scan.
func TestDeleteCodesKeepsScanOrder(t *testing.T) {
	cat := relation.NewCatalog()
	tbl, err := cat.CreateTable("R", []relation.Column{{Name: "a"}, {Name: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"0", "1", "2"} {
		cat.Domain("a").Intern(v)
		cat.Domain("b").Intern(v)
	}
	var want [][]int32
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 2000; step++ {
		row := []int32{int32(rng.Intn(3)), int32(rng.Intn(3))}
		if rng.Intn(2) == 0 || len(want) == 0 {
			tbl.InsertCodes(row)
			want = append(want, row)
		} else {
			at := slices.IndexFunc(want, func(r []int32) bool { return slices.Equal(r, row) })
			if got := tbl.DeleteCodes(row); got != (at >= 0) {
				t.Fatalf("step %d: DeleteCodes(%v) = %v", step, row, got)
			}
			if at >= 0 {
				want[at] = want[len(want)-1]
				want = want[:len(want)-1]
			}
		}
		if !slices.EqualFunc(tbl.Rows(), want, slices.Equal[[]int32]) {
			t.Fatalf("step %d: rows %v, the scan leaves %v", step, tbl.Rows(), want)
		}
		n := 0
		for _, r := range want {
			if slices.Equal(r, row) {
				n++
			}
		}
		if got := tbl.Count(row); got != n {
			t.Fatalf("step %d: Count(%v) = %d, the scan counts %d", step, row, got, n)
		}
	}
}
