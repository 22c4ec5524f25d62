package store

import (
	"bytes"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// TestAppendAfterStrayBytesKeepsRecord pins that a record goes where the
// last good one ended. A failed append can leave part of its record in the
// file (a short write); the next record must overwrite it, not land behind
// it, where recovery's tail scan would drop it as torn.
func TestAppendAfterStrayBytesKeepsRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ups := []core.Update{{Table: "CUST", Op: core.UpdateInsert, Values: []string{"Toronto", "416", "Ontario"}}}
	if err := s.AppendBatch(2, ups); err != nil {
		t.Fatal(err)
	}
	// What a short write leaves behind: bytes past the last good record.
	if _, err := s.wal.f.Seek(0, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := s.wal.f.Write(bytes.Repeat([]byte{0xff}, 22)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(3, ups); err != nil {
		t.Fatal(err)
	}
	scan, err := scanWAL(filepath.Join(dir, s.man.WAL))
	if err != nil {
		t.Fatal(err)
	}
	if scan.Records != 2 {
		t.Fatalf("%d of 2 records scan back (%d bytes dropped)", scan.Records, scan.DroppedBytes)
	}
	if got := scan.Batches[1].Epoch; got != 3 {
		t.Errorf("second record is epoch %d, want 3", got)
	}
}
