package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/relation"
)

// TestPinsAreOwned walks checkers under DebugChecks through every path that
// pins or unpins a node. Each of their safe points proves that the kernel's
// pins are exactly the Refs the index store and the evaluator own, and
// panics otherwise; the test also checks that each step reached the state
// it is meant to exercise.
func TestPinsAreOwned(t *testing.T) {
	cat := relation.NewCatalog()
	tbl, err := cat.CreateTable("R", []relation.Column{
		{Name: "k", Domain: "k"}, {Name: "pad", Domain: "pad"}, {Name: "v", Domain: "v"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		tbl.Insert(fmt.Sprintf("k%d", i%4), fmt.Sprintf("p%d", i%3), fmt.Sprintf("v%d", i%4))
	}
	chk := core.New(cat, core.Options{})
	chk.Kernel().SetDebugChecks(true)
	for _, ix := range []struct {
		name string
		cols []string
	}{{"R", nil}, {"Rkv", []string{"k", "v"}}} {
		if _, err := chk.BuildIndex(ix.name, "R", ix.cols, core.OrderSchema); err != nil {
			t.Fatal(err)
		}
	}
	parse := func(text string) logic.Constraint {
		f, err := logic.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		return logic.Constraint{Name: text, F: f}
	}
	fd := parse(`forall k, v1, v2: R(k, _, v1) and R(k, _, v2) => v1 = v2`)
	bound := parse(`forall p, v: R("k1", p, v) => v = "v1"`)
	keys := parse(`forall k, v1, v2: Rkv(k, v1) and Rkv(k, v2) => v1 = v2`)
	check := func(c *core.Checker) {
		t.Helper()
		for _, ct := range []logic.Constraint{fd, bound} {
			if r := c.CheckOne(ct); r.Err != nil || r.Method != core.MethodBDD || r.Violated {
				t.Fatalf("%s: %+v", ct.Name, r)
			}
		}
	}
	projections := func(c *core.Checker) int {
		n := 0
		for _, name := range c.Store().Names() {
			n += len(c.Store().Index(name).Projections())
		}
		return n
	}
	apply := func(ups ...core.Update) {
		t.Helper()
		if _, err := chk.Apply(ups); err != nil {
			t.Fatal(err)
		}
	}
	row := core.Update{Table: "R", Op: core.UpdateInsert, Values: []string{"k1", "p3", "v1"}}
	unrow := row
	unrow.Op = core.UpdateDelete

	check(chk)
	if projections(chk) == 0 || len(core.EvaluatorOf(chk).CachedRefs()) == 0 {
		t.Fatalf("the checks left %d projections and %d cached bindings, want some of each",
			projections(chk), len(core.EvaluatorOf(chk).CachedRefs()))
	}
	apply(row)
	if projections(chk) == 0 {
		t.Fatal("a one-row update forgot the projections")
	}
	var batch []core.Update
	for range tbl.Len() {
		batch = append(batch, unrow, row)
	}
	apply(batch...)
	if projections(chk) != 0 {
		t.Fatal("a batch larger than the table kept its unread projections")
	}
	check(chk)
	core.EvaluatorOf(chk).ForgetPred("R")
	check(chk)

	img, snaps, err := chk.ExportIndices()
	if err != nil {
		t.Fatal(err)
	}
	replica := core.New(cat.Clone(), chk.Options())
	replica.Kernel().SetDebugChecks(true)
	if err := replica.AdoptIndices(img, snaps); err != nil {
		t.Fatal(err)
	}
	check(replica)
	apply(unrow)
	check(chk)
	if img, snaps, err = chk.ExportIndices(); err != nil {
		t.Fatal(err)
	}
	if err := replica.AdvanceIndices(cat.Clone(), img, snaps); err != nil {
		t.Fatal(err)
	}
	if projections(replica) == 0 {
		t.Fatal("the replica advanced onto no projection")
	}
	check(replica)

	// The store drops an index behind the checker.
	if r := chk.CheckOne(keys); r.Err != nil || r.Violated || len(chk.Store().Index("Rkv").Projections()) == 0 {
		t.Fatalf("%s: %+v, and no projection of Rkv", keys.Name, r)
	}
	chk.Store().Drop("Rkv")
	check(chk)
	apply(row)
	check(chk)
}

// TestDropBehindTheChecker drops one of two indices over a table through the
// store: the checker keeps no list of its own, so the next batch moves the
// survivor only, a constraint over the dropped index falls back to SQL, and
// one over the survivor is still decided by BDD.
func TestDropBehindTheChecker(t *testing.T) {
	cat := relation.NewCatalog()
	tbl, err := cat.CreateTable("R", []relation.Column{{Name: "k", Domain: "k"}, {Name: "v", Domain: "v"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		tbl.Insert(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i%2))
	}
	chk := core.New(cat, core.Options{})
	chk.Kernel().SetDebugChecks(true)
	for _, name := range []string{"R", "Rkv"} {
		if _, err := chk.BuildIndex(name, "R", nil, core.OrderSchema); err != nil {
			t.Fatal(err)
		}
	}
	chk.Store().Drop("R")
	batch := []core.Update{
		{Table: "R", Op: core.UpdateInsert, Values: []string{"k1", "v0"}},
		{Table: "R", Op: core.UpdateDelete, Values: []string{"k2", "v0"}},
	}
	if n, err := chk.Apply(batch); n != len(batch) || err != nil {
		t.Fatalf("Apply = %d, %v; want %d, nil", n, err, len(batch))
	}
	for _, c := range []struct {
		pred   string
		method core.Method
	}{{"R", core.MethodSQL}, {"Rkv", core.MethodBDD}} {
		f, err := logic.Parse(fmt.Sprintf(`forall k, v1, v2: %s(k, v1) and %[1]s(k, v2) => v1 = v2`, c.pred))
		if err != nil {
			t.Fatal(err)
		}
		ct := logic.Constraint{Name: c.pred + "_fd", F: f}
		r := chk.CheckOne(ct)
		if r.Err != nil || r.Method != c.method || r.FellBack != (c.method == core.MethodSQL) || !r.Violated {
			t.Fatalf("%s: %+v, want a violation found by %s", ct.Name, r, c.method)
		}
		rows, err := chk.ViolatingRows(ct)
		if err != nil || rows.Len() == 0 {
			t.Fatalf("%s: the SQL violation query found %v rows (%v), want some", ct.Name, rows, err)
		}
	}
}
