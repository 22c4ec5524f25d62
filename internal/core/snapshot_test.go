package core_test

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/logic"
)

// snapshot_test.go checks that ExportIndices carries everything needed to
// reproduce a checker's indices elsewhere: adoption of the image itself and
// of the image after a WriteTo/ReadImage roundtrip must both yield a checker
// that decides every constraint identically, by the BDD path, on
// structurally identical indices.

func curriculumConstraints(t *testing.T) []logic.Constraint {
	t.Helper()
	f, err := logic.Parse(curriculumConstraint)
	if err != nil {
		t.Fatal(err)
	}
	g, err := logic.Parse(`forall s, c: TAKES(s, c) => exists d, z: STUDENT(s, d, z)`)
	if err != nil {
		t.Fatal(err)
	}
	return []logic.Constraint{
		{Name: "cs_programming", F: f},
		{Name: "takes_fk", F: g},
	}
}

func TestSnapshotIndicesRoundTrip(t *testing.T) {
	cat := buildCurriculum(t)
	primary := newChecker(t, cat)
	cts := curriculumConstraints(t)
	want := primary.Check(cts)

	img, snaps, err := primary.ExportIndices()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 {
		t.Fatalf("got %d snapshots, want 3", len(snaps))
	}
	for _, s := range snaps {
		if len(s.Blocks) == 0 || len(s.Cols) != len(s.Blocks) {
			t.Fatalf("snapshot %q: %d blocks for %d columns", s.Name, len(s.Blocks), len(s.Cols))
		}
	}

	check := func(t *testing.T, replica *core.Checker) {
		t.Helper()
		for _, s := range snaps {
			ix := replica.Store().Index(s.Name)
			if ix == nil {
				t.Fatalf("replica lost index %q", s.Name)
			}
			if got, want := ix.NodeCount(), primary.Store().Index(s.Name).NodeCount(); got != want {
				t.Fatalf("index %q: %d nodes after adoption, want %d", s.Name, got, want)
			}
			// Membership must work on the adopted index.
			tab := replica.Catalog().Table(s.Table)
			for i := 0; i < tab.Len(); i++ {
				if !ix.Contains(tab.Row(i)) {
					t.Fatalf("index %q: adopted root misses row %d", s.Name, i)
				}
			}
		}
		got := replica.Check(cts)
		for i, res := range got {
			if res.Err != nil {
				t.Fatalf("replica check %s: %v", cts[i].Name, res.Err)
			}
			if res.Method != core.MethodBDD {
				t.Fatalf("replica check %s went through %s, want bdd (reason: %v)",
					cts[i].Name, res.Method, res.FallbackReason)
			}
			if res.Violated != want[i].Violated {
				t.Fatalf("replica check %s: violated=%v, primary says %v",
					cts[i].Name, res.Violated, want[i].Violated)
			}
		}
	}

	t.Run("copyto", func(t *testing.T) {
		replica := core.New(cat.Clone(), primary.Options())
		if err := replica.AdoptIndices(img, snaps); err != nil {
			t.Fatal(err)
		}
		check(t, replica)
	})

	t.Run("saveload", func(t *testing.T) {
		// Persist the image and adopt what reads back.
		var buf bytes.Buffer
		if _, err := img.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := bdd.ReadImage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		replica := core.New(cat.Clone(), primary.Options())
		if err := replica.AdoptIndices(loaded, snaps); err != nil {
			t.Fatal(err)
		}
		check(t, replica)
	})
}

func TestNoSQLFallbackStopsBeforeSQL(t *testing.T) {
	cat := buildCurriculum(t)
	chk := newChecker(t, cat)
	cts := curriculumConstraints(t)

	// A 1-node budget forces the BDD path to abort; with NoSQLFallback the
	// result must report the needed fallback instead of running the scan.
	res := chk.CheckOneOpts(cts[0], core.CheckOptions{NodeBudget: 1, NoSQLFallback: true})
	if !res.FellBack || res.Err == nil {
		t.Fatalf("want reported fallback, got %+v", res)
	}
	if !errors.Is(res.Err, bdd.ErrBudget) {
		t.Fatalf("Err = %v, want ErrBudget", res.Err)
	}
	if got := chk.Stats().SQLFallbacks; got != 0 {
		t.Fatalf("SQLFallbacks = %d, want 0 (no SQL may run)", got)
	}

	// Without the option the same budget degrades to SQL as before.
	res = chk.CheckOneOpts(cts[0], core.CheckOptions{NodeBudget: 1})
	if res.Err != nil || res.Method != core.MethodSQL || !res.FellBack {
		t.Fatalf("want SQL fallback result, got %+v", res)
	}
	if !res.Violated {
		t.Fatal("SQL fallback must still find the violation")
	}
}

// TestAdvanceIndices: a replica moves to a newer snapshot of the same indices
// inside the kernel it has, and an advance that cannot be made changes
// nothing — the replica answers for the snapshot it held, on a kernel with no
// sticky error.
func TestAdvanceIndices(t *testing.T) {
	cat := buildCurriculum(t)
	primary := newChecker(t, cat)
	cts := curriculumConstraints(t)
	img, snaps, err := primary.ExportIndices()
	if err != nil {
		t.Fatal(err)
	}
	replica := core.New(cat.Clone(), primary.Options())
	if err := replica.AdoptIndices(img, snaps); err != nil {
		t.Fatal(err)
	}
	kernel := replica.Kernel()
	agree := func(t *testing.T, want []core.Result) {
		t.Helper()
		for i, res := range replica.Check(cts) {
			if res.Err != nil || res.Method != core.MethodBDD || res.Violated != want[i].Violated {
				t.Fatalf("%s: replica %+v, want violated=%v by bdd", cts[i].Name, res, want[i].Violated)
			}
		}
		if err := kernel.Err(); err != nil {
			t.Fatalf("kernel left with %v", err)
		}
	}
	before := primary.Check(cts)
	agree(t, before)
	if !before[0].Violated {
		t.Fatal("the curriculum constraint should start violated")
	}

	// s2 takes a Programming course: the violation goes away.
	if _, err := primary.Apply([]core.Update{{Table: "TAKES", Op: core.UpdateInsert, Values: []string{"s2", "cs101"}}}); err != nil {
		t.Fatal(err)
	}
	after := primary.Check(cts)
	if after[0].Violated {
		t.Fatal("the insert should repair the curriculum constraint")
	}
	frozen := cat.Clone()
	if img, snaps, err = primary.ExportIndices(); err != nil {
		t.Fatal(err)
	}

	t.Run("geometry", func(t *testing.T) {
		fewer := snaps[:len(snaps)-1]
		if err := replica.AdvanceIndices(frozen, img, fewer); err == nil {
			t.Fatal("advanced onto a snapshot with an index missing")
		}
		renamed := append([]core.IndexSnapshot(nil), snaps...)
		renamed[0].Blocks = append([]core.BlockSnapshot(nil), renamed[0].Blocks...)
		renamed[0].Blocks[0].Vars = append([]int{renamed[0].Blocks[0].Vars[0] + 1}, renamed[0].Blocks[0].Vars[1:]...)
		if err := replica.AdvanceIndices(frozen, img, renamed); err == nil {
			t.Fatal("advanced onto a snapshot whose blocks sit on other variables")
		}
		agree(t, before)
	})

	t.Run("projections", func(t *testing.T) {
		with := slices.IndexFunc(snaps, func(s core.IndexSnapshot) bool { return len(s.Projections) > 0 })
		if with < 0 {
			t.Fatal("the primary's checks left no maintained projection to export")
		}
		tamper := func(projs [][]int) []core.IndexSnapshot {
			out := slices.Clone(snaps)
			out[with].Projections = projs
			return out
		}
		s := snaps[with]
		for name, projs := range map[string][][]int{
			"a position past the columns": append(slices.Clone(s.Projections[1:]), []int{len(s.Cols)}),
			"every column":                append(slices.Clone(s.Projections[1:]), s.Cols),
			"a list twice":                append(slices.Clone(s.Projections), s.Projections[0]),
			"a list missing":              s.Projections[1:],
		} {
			if err := replica.AdvanceIndices(frozen, img, tamper(projs)); err == nil {
				t.Fatalf("advanced onto a snapshot listing %s", name)
			}
		}
		agree(t, before)
	})

	t.Run("budget", func(t *testing.T) {
		kernel.GC()
		kernel.SetBudget(kernel.Size()) // the delta needs at least one node
		err := replica.AdvanceIndices(frozen, img, snaps)
		kernel.SetBudget(0)
		if !errors.Is(err, bdd.ErrBudget) {
			t.Fatalf("AdvanceIndices under an exhausted budget = %v, want ErrBudget", err)
		}
		if replica.Catalog() == frozen {
			t.Fatal("a failed advance swapped the catalog")
		}
		agree(t, before)
	})

	t.Run("advance", func(t *testing.T) {
		if err := replica.AdvanceIndices(frozen, img, snaps); err != nil {
			t.Fatal(err)
		}
		if replica.Kernel() != kernel || replica.Catalog() != frozen {
			t.Fatal("the advance did not keep the kernel and take the new catalog")
		}
		for _, s := range snaps {
			if ix := replica.Store().Index(s.Name); ix.Table() != frozen.Table(s.Table) {
				t.Fatalf("index %q still reads the old catalog's table", s.Name)
			}
		}
		agree(t, after)
		kernel.GC() // only the new roots are pinned now
		agree(t, after)
	})
}
