package logic_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/logic"
	"repro/internal/relation"
)

// eval_test.go pins the evaluator's two entry points against each other:
// Holds may project stripped ∀-variables at their atom (markUniversal), Eval
// never does, and the verdicts must agree on every shape the rule's side
// conditions distinguish. Agreement with the SQL engine and the brute-force
// referee is internal/difftest's job.

// evalFixture is a small random catalog with an index per table:
//
//	R(a:A, b:B, c:C)   S(b:B, c:C)   P(a:A, a2:A, c:C)   E(a:A, b:B), empty
type evalFixture struct {
	cat   *relation.Catalog
	store *index.Store
}

func newEvalFixture(t *testing.T, rng *rand.Rand) *evalFixture {
	t.Helper()
	cat := relation.NewCatalog()
	// Small enough that every shape below both holds and fails across the
	// trials; A and C leave a slot of their block unused, so the domain
	// guards matter.
	sizes := map[string]int{"A": 3, "B": 2, "C": 3}
	densities := []float64{0.05, 0.1, 0.3, 0.7, 1}
	for dom, n := range sizes {
		for i := 0; i < n; i++ {
			cat.Domain(dom).Intern(fmt.Sprintf("%s_%d", dom, i))
		}
	}
	fx := &evalFixture{cat: cat, store: index.NewStore(index.Options{})}
	for _, tb := range []struct {
		name    string
		doms    []string
		density float64
	}{
		{"R", []string{"A", "B", "C"}, densities[rng.Intn(len(densities))]},
		{"S", []string{"B", "C"}, densities[rng.Intn(len(densities))]},
		{"P", []string{"A", "A", "C"}, densities[rng.Intn(len(densities))]},
		{"E", []string{"A", "B"}, 0},
	} {
		cols := make([]relation.Column, len(tb.doms))
		all := make([]int, len(tb.doms))
		for i, d := range tb.doms {
			cols[i] = relation.Column{Name: fmt.Sprintf("c%d", i), Domain: d}
			all[i] = i
		}
		tab, err := cat.CreateTable(tb.name, cols)
		if err != nil {
			t.Fatal(err)
		}
		row := make([]int32, len(tb.doms))
		var fill func(i int)
		fill = func(i int) {
			if i == len(row) {
				if rng.Float64() < tb.density {
					tab.InsertCodes(append([]int32(nil), row...))
				}
				return
			}
			for v := 0; v < sizes[tb.doms[i]]; v++ {
				row[i] = int32(v)
				fill(i + 1)
			}
		}
		fill(0)
		if _, err := fx.store.Build(tb.name, tab, all, nil); err != nil {
			t.Fatal(err)
		}
	}
	return fx
}

func (fx *evalFixture) evaluator(opts logic.EvalOptions) *logic.Evaluator {
	return logic.NewEvaluator(fx.store, logic.CatalogResolver{Catalog: fx.cat}, opts)
}

// ruleShapes lists one constraint per side condition of the universal
// projection rule, and whether the rule fires on it.
var ruleShapes = []struct {
	name, src string
	fires     bool
}{
	{"wildcard in the antecedent", `forall b, c: R(_, b, c) => S(b, c)`, true},
	{"once-used named variables", `forall a, b, c: R(a, b, c) => c in {"C_0", "C_1"}`, true},
	{"every column projected", `forall a, b, c: not R(a, b, c)`, true},
	{"across an and", `forall a, b, c, b2, c2: (R(a, b, c) => c != "C_1") and (S(b2, c2) => b2 != "B_1")`, true},
	{"across an and, empty table", `forall a, b, b2, c: not E(a, b) and (S(b2, c) => c in {"C_0", "C_1"})`, true},
	{"two atoms, one variable each", `forall a, b, c, a2: R(a, b, c) and P(a2, a2, c) => b = "B_0"`, true},
	{"variable repeated in one atom", `forall a, c: P(a, a, c) => c = "C_1"`, false},
	{"variable also in a comparison", `forall b, c: S(b, c) and b in {"B_0"} => c != "C_2"`, false},
	{"positive atom", `forall a, b, c: R(a, b, c) or S(b, c)`, false},
	{"atom under an inner exists", `forall b: exists c: not S(b, c)`, false},
	{"atom under an inner forall", `forall a: exists b: forall c: not R(a, b, c)`, false},
	{"existence check", `exists b, c: not S(b, c)`, false},
}

func TestHoldsAgreesWithEval(t *testing.T) {
	ruleOff := logic.DefaultEvalOptions()
	ruleOff.EarlyProject = false
	for _, shape := range ruleShapes {
		t.Run(shape.name, func(t *testing.T) {
			f, err := logic.Parse(shape.src)
			if err != nil {
				t.Fatal(err)
			}
			ct := logic.Constraint{Name: "c", F: f}
			rng := rand.New(rand.NewSource(41))
			verdicts := map[bool]int{}
			for trial := 0; trial < 40; trial++ {
				fx := newEvalFixture(t, rng)
				for _, opts := range []logic.EvalOptions{logic.DefaultEvalOptions(), ruleOff} {
					ev := fx.evaluator(opts)
					out, err := ev.Eval(ct)
					if err != nil {
						t.Fatal(err)
					}
					holds, err := ev.Holds(ct)
					if err != nil {
						t.Fatal(err)
					}
					if holds != out.Holds {
						t.Fatalf("trial %d (EarlyProject=%v): Holds = %v, Eval = %v", trial, opts.EarlyProject, holds, out.Holds)
					}
					if got, want := ev.VerdictStats().Projected == 1, shape.fires && opts.EarlyProject; got != want {
						t.Fatalf("trial %d (EarlyProject=%v): rule fired = %v, want %v", trial, opts.EarlyProject, got, want)
					}
					verdicts[holds]++
				}
			}
			if verdicts[true] == 0 || verdicts[false] == 0 {
				t.Fatalf("holds on %d evaluations, fails on %d: the fixture decides nothing", verdicts[true], verdicts[false])
			}
		})
	}
}

// customersFixture indexes a datagen.Customers relation in schema order.
func customersFixture(t *testing.T, tuples int) (*evalFixture, *datagen.CustomerData) {
	t.Helper()
	cat := relation.NewCatalog()
	data, err := datagen.Customers(cat, "CUST", datagen.CustomerSpec{Tuples: tuples, NoiseRate: 0.001}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	fx := &evalFixture{cat: cat, store: index.NewStore(index.Options{})}
	if _, err := fx.store.Build("CUST", data.Table, []int{0, 1, 2, 3, 4}, nil); err != nil {
		t.Fatal(err)
	}
	return fx, data
}

func quoted(vals []string) string {
	return `{"` + strings.Join(vals, `", "`) + `"}`
}

// TestVerdictWalksOnlyNamedColumns: the paper's own constraint shape names
// two of CUST's five columns. Once the (city, state) projection is memoized,
// a verdict over fresh constants costs a fraction of the full evaluation,
// which negates and disjoins the whole index.
func TestVerdictWalksOnlyNamedColumns(t *testing.T) {
	fx, data := customersFixture(t, 5000)
	ev := fx.evaluator(logic.DefaultEvalOptions())
	citiesImplyStates := func(first int) logic.Constraint {
		var cities, states []string
		for c := first; c < first+5; c++ {
			cities = append(cities, datagen.CityName(c))
			states = append(states, datagen.StateName(data.CityState[c]))
		}
		f, err := logic.Parse(fmt.Sprintf(`forall c, s: CUST(_, _, c, s, _) and c in %s => s in %s`, quoted(cities), quoted(states)))
		if err != nil {
			t.Fatal(err)
		}
		return logic.Constraint{Name: "cs", F: f}
	}
	k := fx.store.Kernel()
	ops := func(eval func(logic.Constraint) bool, ct logic.Constraint) (bool, uint64) {
		before := k.Stats().Ops
		holds := eval(ct)
		return holds, k.Stats().Ops - before
	}
	holds := func(ct logic.Constraint) bool {
		h, err := ev.Holds(ct)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	full := func(ct logic.Constraint) bool {
		out, err := ev.Eval(ct)
		if err != nil {
			t.Fatal(err)
		}
		return out.Holds
	}
	// Warm both paths on one set of constants, measure on another.
	holds(citiesImplyStates(0))
	full(citiesImplyStates(0))
	hv, hOps := ops(holds, citiesImplyStates(5))
	fv, fOps := ops(full, citiesImplyStates(5))
	if hv != fv {
		t.Fatalf("Holds = %v, Eval = %v", hv, fv)
	}
	t.Logf("warmed verdict: %d kernel steps; full evaluation: %d", hOps, fOps)
	if hOps*10 >= fOps {
		t.Fatalf("a warmed verdict costs %d kernel steps, the full evaluation %d: want under a tenth", hOps, fOps)
	}
}

// TestPredCacheIsBounded: every cached predicate binding pins a BDD. Ad-hoc
// constraints bring constants that never recur, so the cache must stop
// growing at its cap, and a table's bindings must go when its version moves.
func TestPredCacheIsBounded(t *testing.T) {
	fx, data := customersFixture(t, 5000)
	ev := fx.evaluator(logic.DefaultEvalOptions())
	k := fx.store.Kernel()
	tab := data.Table
	// One constraint per distinct (number, zipcode) pair of the relation:
	// each binding restricts the index to a few tuples and pins what is left.
	var cts []logic.Constraint
	seen := map[[2]int32]bool{}
	for r := 0; r < tab.Len() && len(cts) < logic.MaxPredCache+300; r++ {
		row := tab.Row(r)
		if key := [2]int32{row[1], row[4]}; !seen[key] {
			seen[key] = true
			f, err := logic.Parse(fmt.Sprintf(`forall a, c, s: CUST(a, %q, c, s, %q) => s = %q`,
				datagen.NumberName(int(row[1])), datagen.ZipcodeName(int(row[4])), datagen.StateName(int(row[3]))))
			if err != nil {
				t.Fatal(err)
			}
			cts = append(cts, logic.Constraint{Name: "pin", F: f})
		}
	}
	if len(cts) <= logic.MaxPredCache {
		t.Fatalf("fixture yields %d distinct bindings, need more than the cap of %d", len(cts), logic.MaxPredCache)
	}
	liveAfterGC := func() int {
		k.GC()
		return k.Stats().Live
	}
	check := func(ct logic.Constraint) {
		// Eval binds every column, so each entry pins a path of the index.
		if _, err := ev.Eval(ct); err != nil {
			t.Fatal(err)
		}
	}
	check(cts[0]) // allocates the evaluator's scratch state
	baseline := liveAfterGC()
	for _, ct := range cts {
		check(ct)
	}
	if n := ev.PredCacheLen(); n > logic.MaxPredCache {
		t.Fatalf("%d cached bindings after %d distinct ones, cap is %d", n, len(cts), logic.MaxPredCache)
	}
	pinned := liveAfterGC() - baseline
	if pinned < logic.MaxPredCache {
		t.Fatalf("a full cache pins %d nodes: the fixture does not exercise pinning", pinned)
	}
	// Move the table's version: delete a tuple and put it back, in the table
	// and in its index.
	row := append([]int32(nil), tab.Row(0)...)
	ix := fx.store.Index("CUST")
	if !tab.DeleteCodes(row) {
		t.Fatal("fixture row not found")
	}
	if err := ix.Delete(row, false); err != nil {
		t.Fatal(err)
	}
	tab.InsertCodes(row)
	if err := ix.Insert(row); err != nil {
		t.Fatal(err)
	}
	check(cts[0])
	if n := ev.PredCacheLen(); n != 1 {
		t.Fatalf("%d cached bindings after the table moved, want the 1 just bound", n)
	}
	if after := liveAfterGC(); after > baseline+300 {
		t.Fatalf("live after GC: %d before any binding, %d after the table moved (%d were pinned in between)", baseline, after, pinned)
	}
}
