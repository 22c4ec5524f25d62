package core_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/logic"
	"repro/internal/relation"
)

// TestFirstCheckAfterApplyIsWarm pins what maintained projections buy. On
// 10 000 customers, after a 512-tuple batch shaped like the benchmark's (half
// inserts of a live customer's row under another customer's number, half
// deletes of live tuples), a constant-free check over (city, state) must cost
// less than a quarter of the kernel steps the same check costs on a freshly
// built checker, which has to project the index from scratch.
func TestFirstCheckAfterApplyIsWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cat := relation.NewCatalog()
	data, err := datagen.Customers(cat, "CUST", datagen.CustomerSpec{Tuples: 10000, NoiseRate: 0.001}, rng)
	if err != nil {
		t.Fatal(err)
	}
	build := func(cat *relation.Catalog) *core.Checker {
		chk := core.New(cat, core.Options{})
		if _, err := chk.BuildIndex("CUST", "CUST", nil, core.OrderProbConverge); err != nil {
			t.Fatal(err)
		}
		return chk
	}
	tbl := data.Table
	live := make([][]string, tbl.Len())
	for r := range live {
		live[r] = make([]string, tbl.NumCols())
		for c := range live[r] {
			live[r][c] = tbl.Value(r, c)
		}
	}
	// citiesStates draws five customers and holds their cities to their
	// states, in the benchmark's cs shape.
	citiesStates := func(name string) logic.Constraint {
		cities, states := map[string]bool{}, map[string]bool{}
		for i := 0; i < 5; i++ {
			row := live[rng.Intn(len(live))]
			cities[row[2]], states[row[3]] = true, true
		}
		f, err := logic.Parse(fmt.Sprintf("forall c, s: CUST(_, _, c, s, _) and c in %s => s in %s", set(cities), set(states)))
		if err != nil {
			t.Fatal(err)
		}
		return logic.Constraint{Name: name, F: f}
	}

	chk := build(cat)
	if res := chk.CheckOne(citiesStates("before")); res.Err != nil || res.FellBack {
		t.Fatalf("check before the batch: %+v", res)
	}
	batch := make([]core.Update, 0, 512)
	for i := 0; i < cap(batch); i++ {
		if i%2 == 0 {
			row := append([]string(nil), live[rng.Intn(len(live))]...)
			row[1] = live[rng.Intn(len(live))][1]
			live = append(live, row)
			batch = append(batch, core.Update{Table: "CUST", Op: core.UpdateInsert, Values: row})
			continue
		}
		j := rng.Intn(len(live))
		batch = append(batch, core.Update{Table: "CUST", Op: core.UpdateDelete, Values: live[j]})
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	if _, err := chk.Apply(batch); err != nil {
		t.Fatal(err)
	}

	ct := citiesStates("after")
	warm := chk.CheckOne(ct)
	cold := build(cat.Clone()).CheckOne(ct)
	for _, res := range []core.Result{warm, cold} {
		if res.Err != nil || res.FellBack {
			t.Fatalf("check after the batch: %+v", res)
		}
	}
	if warm.Violated != cold.Violated {
		t.Fatalf("after the batch the checker says violated=%v, a fresh one %v", warm.Violated, cold.Violated)
	}
	t.Logf("first check after the batch: %d kernel steps; on a fresh checker: %d", warm.Kernel.Ops, cold.Kernel.Ops)
	if 4*warm.Kernel.Ops >= cold.Kernel.Ops {
		t.Fatalf("the first check after the batch cost %d kernel steps, a fresh checker's %d: the projection was recomputed, not maintained",
			warm.Kernel.Ops, cold.Kernel.Ops)
	}
}

// set renders a set of values as a constraint's value set, sorted.
func set(vals map[string]bool) string {
	q := make([]string, 0, len(vals))
	for v := range vals {
		q = append(q, fmt.Sprintf("%q", v))
	}
	sort.Strings(q)
	return "{" + strings.Join(q, ", ") + "}"
}
