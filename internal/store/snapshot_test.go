package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/relation"
)

// TestSnapshotStringDecodeBoundedAlloc: a few bytes that declare the largest
// string a snapshot may hold must be refused as corrupt without allocating
// what they declare.
func TestSnapshotStringDecodeBoundedAlloc(t *testing.T) {
	data := []byte(snapMagic)
	for _, v := range []uint64{snapFormatVersion, 1, 0, 1, maxSnapString} { // version, epoch, vars, one domain, its name's length
		data = binary.AppendUvarint(data, v)
	}
	data = append(data, "CUST"...)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, _, err := readSnapshot(bytes.NewReader(data), core.Options{})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a truncated 2^26-byte string: %v, want ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("refusing %d bytes allocated %d bytes", len(data), got)
	}
}

// The fixture behind testdata/format1.snap, a snapshot that a build writing
// format 1 wrote at epoch 3: CUST(city, areacode, state) over these rows,
// one index, and the FD city -> areacode, which the rows violate.
var format1Rows = [][]string{
	{"Toronto", "416", "Ontario"}, {"Toronto", "647", "Ontario"}, {"Oshawa", "905", "Ontario"},
	{"Newark", "973", "NJ"}, {"Newark", "416", "NJ"},
}

// TestReadsFormat1Snapshot: a format-1 snapshot, which lists no projections,
// still restores, and what it restores answers like the checker it was
// written from; written again, it is format 2 and round-trips.
func TestReadsFormat1Snapshot(t *testing.T) {
	data, err := os.ReadFile("testdata/format1.snap")
	if err != nil {
		t.Fatal(err)
	}
	chk, text, epoch, err := readSnapshot(bytes.NewReader(data), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 3 {
		t.Fatalf("epoch %d, want 3", epoch)
	}
	cts, err := logic.ParseConstraints(text)
	if err != nil || len(cts) != 1 {
		t.Fatalf("constraint text %q: %v", text, err)
	}
	for _, s := range chk.SnapshotIndices() {
		if len(s.Projections) != 0 {
			t.Fatalf("a format-1 snapshot restored projections %v", s.Projections)
		}
	}
	cat := relation.NewCatalog()
	cust, err := cat.CreateTable("CUST", []relation.Column{{Name: "city"}, {Name: "areacode"}, {Name: "state"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range format1Rows {
		cust.Insert(r...)
	}
	built := core.New(cat, core.Options{})
	if _, err := built.BuildIndex("CUST", "CUST", nil, core.OrderProbConverge); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*core.Checker{chk, built} {
		if res := c.CheckOne(cts[0]); res.Err != nil || !res.Violated || res.Method != core.MethodBDD {
			t.Fatalf("%s: violated=%v method=%s err=%v, want a BDD violation", cts[0].Name, res.Violated, res.Method, res.Err)
		}
	}
	var buf bytes.Buffer
	if err := writeSnapshot(&buf, chk, text, epoch); err != nil {
		t.Fatal(err)
	}
	again, _, _, err := readSnapshot(bytes.NewReader(buf.Bytes()), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := again.SnapshotIndices()[0]; len(s.Projections) != 2 {
		t.Fatalf("rewritten as format 2, the index carries projections %v, want the FD's pairs and groups", s.Projections)
	}
	if res := again.CheckOne(cts[0]); !res.Violated || res.Kernel.Ops != 0 {
		t.Fatalf("after the format-2 round trip: violated=%v ops=%d, want a violation read from the restored projection",
			res.Violated, res.Kernel.Ops)
	}
	if again.Store().AdoptedReads() == 0 {
		t.Fatal("no read was answered by a restored projection")
	}
}
