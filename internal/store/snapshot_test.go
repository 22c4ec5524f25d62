package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/core"
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
// refused as corrupt, by its format, rather than restored, by every reader.
func TestReadsFormat1Snapshot(t *testing.T) {
	data, err := os.ReadFile("testdata/format1.snap")
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = readSnapshot(bytes.NewReader(data), core.Options{})
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "format version 1 is no longer read") {
		t.Fatalf("a format-1 snapshot: %v, want ErrCorrupt saying format 1 is no longer read", err)
	}
	refusedByEveryReader(t, data, 3)
}

// TestRefusesSiftedSnapshot: testdata/sifted.snap was written at epoch 5 by
// a build whose kernels still sifted their variable order, so its BDD image
// orders the variables other than by their levels. The image reader refuses
// it as corrupt, and so does every reader of a data directory that holds it.
func TestRefusesSiftedSnapshot(t *testing.T) {
	data, err := os.ReadFile("testdata/sifted.snap")
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = readSnapshot(bytes.NewReader(data), core.Options{})
	if !errors.Is(err, ErrCorrupt) || !errors.Is(err, bdd.ErrCorrupt) {
		t.Fatalf("a sifted snapshot: %v, want ErrCorrupt from the BDD image", err)
	}
	refusedByEveryReader(t, data, 5)
}

// refusedByEveryReader lays a data directory out around the snapshot bytes
// data, sealed at epoch, under a manifest entry with their true length and
// CRC, and checks that Verify, CheckerAt and Recover each refuse it as
// corrupt: they read a snapshot through the one path that boot, a
// follower's reload and cvstore share.
func refusedByEveryReader(t *testing.T, data []byte, epoch uint64) {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.InstallSnapshot(bytes.NewReader(data), epoch, int64(len(data)), crc32.ChecksumIEEE(data)); err != nil {
		t.Fatal(err)
	}
	if err := Verify(dir, io.Discard); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Verify: %v, want ErrCorrupt", err)
	}
	if _, err := st.CheckerAt(epoch, core.Options{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("CheckerAt(%d): %v, want ErrCorrupt", epoch, err)
	}
	if _, _, _, err := st.Recover(core.Options{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Recover: %v, want ErrCorrupt", err)
	}
}
