package bdd_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/bdd"
)

// FuzzLoad: ReadImage must reject arbitrary bytes gracefully — no panics,
// every rejection wrapping ErrCorrupt — and whatever it accepts must import
// without invalid refs.
func FuzzLoad(f *testing.F) {
	// Seed with a valid file.
	k := bdd.New(bdd.Config{Vars: 8})
	f.Add(save(f, k, k.Or(k.And(k.Var(0), k.Var(3)), k.NVar(7))))
	f.Add([]byte{})
	f.Add([]byte("\x00BDD2"))
	f.Add([]byte("\x00BDD2\x08\x00\x01\x02\x03\x04\x05\x06\x07\x01\x00\x00\x01\x01\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := bdd.ReadImage(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, bdd.ErrCorrupt) {
				t.Fatalf("rejection %v does not wrap ErrCorrupt", err)
			}
			return
		}
		k := bdd.New(bdd.Config{Vars: 8, NodeBudget: 4096})
		roots, err := k.Import(img)
		if err != nil {
			return
		}
		// Whatever loaded must be healthy: evaluable and countable.
		for _, r := range roots {
			if r == bdd.Invalid {
				t.Fatal("Import returned Invalid without error")
			}
			k.NodeCount(r)
			k.SatCount(r)
		}
	})
}

// FuzzKernelOps: any sequence over the operation alphabet of gc_test.go —
// connectives, quantifications, a block shift, renames by any permutation of
// the variables (out-of-order replacements), explicit collections and cache
// flushes, with a safe point (a collection, under DebugChecks) after every
// operation — keeps every pinned register equal to its truth table, and what
// GC leaves in the operation caches recomputes to the same functions in a
// fresh kernel.
func FuzzKernelOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 3, 0, 2, 2, 0, 1, 7, 3, 2, 3, 12, 0, 0, 0, 2, 4, 0, 1, 11, 5, 2, 0, 12, 0, 0, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 1, 4, 0, 9, 0, 1, 4, 12, 0, 0, 0, 10, 1, 0, 2, 13, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 5, 0, 4, 2, 0, 1, 14, 3, 2, 211, 12, 0, 0, 0, 14, 24, 1, 77, 13, 0, 0, 0, 14, 25, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		newOpsMachine(t).run(data)
	})
}
