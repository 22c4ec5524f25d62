package store

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
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
	chk.Reorder()
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
		for _, s := range chk.SnapshotIndices() {
			chk.Store().Index(s.Name).NodeCount()
		}
	})
}
