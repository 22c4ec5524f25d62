package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
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

// TestReadsFormat1Snapshot: testdata/format1.snap was written at epoch 3 by
// a build writing format 1, which lists no maintained projections. It is
// refused as corrupt, by its format, rather than restored.
func TestReadsFormat1Snapshot(t *testing.T) {
	data, err := os.ReadFile("testdata/format1.snap")
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = readSnapshot(bytes.NewReader(data), core.Options{})
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "format version 1 is no longer read") {
		t.Fatalf("a format-1 snapshot: %v, want ErrCorrupt saying format 1 is no longer read", err)
	}
}

// The fixture behind testdata/sifted.snap, written at epoch 5 by a build
// whose kernels still sifted their variable order: R(k1, x1, k2, x2) read
// from siftedCSV with siftedDomains and indexed in schema order, one sift,
// which moved the k2 block above x1, then one check of each of siftedRules
// (so the FD's projections are maintained) and the insert siftedInsert.
func siftedCSV() string {
	var b strings.Builder
	b.WriteString("k1,x1,k2,x2\n")
	for i := 0; i < 48; i++ {
		k, x := fmt.Sprintf("K%02d", i%12), fmt.Sprintf("X%d", (i*5)%8)
		fmt.Fprintf(&b, "%s,%s,%s,%s\n", k, x, k, x)
	}
	b.WriteString("K03,X1,K03,X6\n")
	b.WriteString("K05,X2,K09,X2\n")
	return b.String()
}

var siftedDomains = map[string]string{"k1": "key", "k2": "key", "x1": "val", "x2": "val"}

const siftedRules = `constraint key_copy:
    forall a, b, c, d: R(a, b, c, d) => a = c.
constraint val_copy:
    forall a, b, c, d: R(a, b, c, d) => b = d.
constraint fd_kx:
    forall a, b, c, d, b2, c2, d2: R(a, b, c, d) and R(a, b2, c2, d2) => b = b2.
constraint k01_vals:
    forall a, b, c, d: R(a, b, c, d) and a = "K01" => b in {"X1", "X5"}.
`

var siftedInsert = core.Update{Table: "R", Op: core.UpdateInsert, Values: []string{"K00", "X2", "K00", "X2"}}

// TestReadsSiftedSnapshot: a snapshot whose kernel had sifted its variable
// order restores into a kernel whose variables are their levels, and answers
// every constraint with the verdict and the witness set of a fresh build from
// the same rows.
func TestReadsSiftedSnapshot(t *testing.T) {
	data, err := os.ReadFile("testdata/sifted.snap")
	if err != nil {
		t.Fatal(err)
	}
	restored, text, epoch, err := readSnapshot(bytes.NewReader(data), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 5 || text != siftedRules {
		t.Fatalf("epoch %d, constraint text %q", epoch, text)
	}
	cat := relation.NewCatalog()
	if _, err := cat.ReadCSV("R", strings.NewReader(siftedCSV()), siftedDomains); err != nil {
		t.Fatal(err)
	}
	built := core.New(cat, core.Options{})
	if _, err := built.BuildIndex("R", "R", nil, core.OrderSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := built.Apply([]core.Update{siftedInsert}); err != nil {
		t.Fatal(err)
	}
	cts, err := logic.ParseConstraints(siftedRules)
	if err != nil {
		t.Fatal(err)
	}
	violated := 0
	for _, ct := range cts {
		var verdicts []bool
		var witnesses []string
		for _, c := range []*core.Checker{restored, built} {
			res := c.CheckOne(ct)
			if res.Err != nil || res.Method == core.MethodSQL {
				t.Fatalf("%s: method %s, err %v; want a BDD verdict", ct.Name, res.Method, res.Err)
			}
			ws, err := c.ViolationWitnesses(ct, 1000)
			if err != nil {
				t.Fatalf("%s: %v", ct.Name, err)
			}
			var set []string
			for _, w := range ws {
				set = append(set, fmt.Sprint(w.Vars, w.Values))
			}
			slices.Sort(set)
			verdicts = append(verdicts, res.Violated)
			witnesses = append(witnesses, strings.Join(set, "\n"))
		}
		if verdicts[0] != verdicts[1] || witnesses[0] != witnesses[1] {
			t.Fatalf("%s: restored violated=%v witnesses\n%s\nfresh build violated=%v witnesses\n%s",
				ct.Name, verdicts[0], witnesses[0], verdicts[1], witnesses[1])
		}
		if verdicts[0] {
			violated++
		}
	}
	if violated == 0 || violated == len(cts) {
		t.Fatalf("%d of %d constraints violated: the fixture should separate holding from violated ones", violated, len(cts))
	}
}
