package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/relation"
)

// FuzzReadSnapshot: the snapshot reader must reject arbitrary bytes
// gracefully — no panics, and every rejection wrapping ErrCorrupt or
// ErrNewerFormat, the two sentinels recovery tells apart from an
// environmental failure — and whatever it accepts must be a checker whose
// indices answer.
func FuzzReadSnapshot(f *testing.F) {
	cat := relation.NewCatalog()
	cust, err := cat.CreateTable("CUST", []relation.Column{{Name: "city"}, {Name: "state"}})
	if err != nil {
		f.Fatal(err)
	}
	cust.Insert("Toronto", "Ontario")
	cust.Insert("Oshawa", "Ontario")
	cust.Insert("Newark", "NJ")
	chk := core.New(cat, core.Options{})
	if _, err := chk.BuildIndex("CUST", "CUST", nil, core.OrderProbConverge); err != nil {
		f.Fatal(err)
	}
	seed := func() []byte {
		var buf bytes.Buffer
		if err := writeSnapshot(&buf, chk, "forall c, s: CUST(c, s) => s != \"NJ\".\n", 7); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed())
	// A snapshot whose BDD image orders its variables other than by their
	// levels, which the image reader refuses.
	sifted, err := os.ReadFile("testdata/sifted.snap")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sifted)
	// A format-2 snapshot that carries a maintained projection: the FD reads
	// its groups (its pairs are the whole index), and an update moves them.
	fd, err := logic.Parse("forall c, s, s2: CUST(c, s) and CUST(c, s2) => s = s2")
	if err != nil {
		f.Fatal(err)
	}
	chk.CheckOne(logic.Constraint{Name: "fd", F: fd})
	if _, err := chk.Apply([]core.Update{{Table: "CUST", Op: core.UpdateInsert, Values: []string{"Newark", "Ontario"}}}); err != nil {
		f.Fatal(err)
	}
	if snaps := chk.SnapshotIndices(); len(snaps[0].Projections) != 1 {
		f.Fatalf("the seed carries projections %v, want one", snaps[0].Projections)
	}
	f.Add(seed())
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		chk, _, _, err := readSnapshot(bytes.NewReader(data), core.Options{})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNewerFormat) {
				t.Fatalf("rejection %v wraps neither ErrCorrupt nor ErrNewerFormat", err)
			}
			return
		}
		chk.NodeCounts()
	})
}

// FuzzDecodeRecords: the WAL record decoder reads the bytes a follower
// ingests from /wal, so it must take arbitrary bytes without panicking,
// report a decoded prefix inside its input, and decode only records that
// re-encode to exactly their bytes. The payload decoder is fuzzed on its own
// too, past the checksum that guards it inside a record.
func FuzzDecodeRecords(f *testing.F) {
	dir := f.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for epoch, ups := range [][]core.Update{
		{{Table: "CUST", Op: core.UpdateInsert, Values: []string{"Toronto", "416", "Ontario"}}},
		{{Table: "CUST", Op: core.UpdateDelete, Values: []string{"Newark", "973", "NJ"}},
			{Table: "SUPP", Op: core.UpdateInsert, Values: []string{"", strings.Repeat("x", 200)}}},
	} {
		if err := st.AppendBatch(uint64(epoch)+2, ups); err != nil {
			f.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	segment, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		f.Fatal(err)
	}
	records := segment[len(walMagic):]
	f.Add(records)
	f.Add(records[:len(records)-3])
	f.Add(records[walRecordHeader:]) // the first record's payload
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		batches, consumed, _ := decodeRecords(data)
		if consumed < 0 || consumed > len(data) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		var again []byte
		for _, b := range batches {
			payload, err := encodeBatch(nil, b.Epoch, b.Updates)
			if err != nil {
				t.Fatalf("a decoded batch does not re-encode: %v", err)
			}
			again = binary.LittleEndian.AppendUint32(again, uint32(len(payload)))
			again = binary.LittleEndian.AppendUint32(again, crc32.ChecksumIEEE(payload))
			again = append(again, payload...)
		}
		if !bytes.Equal(again, data[:consumed]) {
			t.Fatalf("the %d decoded records re-encode to %x, not to their %x", len(batches), again, data[:consumed])
		}
		if b, err := decodeBatch(data); err == nil {
			payload, err := encodeBatch(nil, b.Epoch, b.Updates)
			if err != nil || !bytes.Equal(payload, data) {
				t.Fatalf("a decoded payload re-encodes to %x (%v), not to %x", payload, err, data)
			}
		}
	})
}
