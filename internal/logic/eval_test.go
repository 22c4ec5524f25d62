package logic_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/logic"
	"repro/internal/ordering"
	"repro/internal/relation"
)

// eval_test.go pins the evaluator's entry points against each other: Holds
// may project stripped ∀-variables at their atom (markUniversal), Eval never
// does, and the verdicts must agree on every shape the rule's side
// conditions distinguish; Violations starts from Holds' pass, and its
// violation sets must be Eval's. Agreement with the SQL engine and the
// brute-force referee is internal/difftest's job.

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

func (fx *evalFixture) evaluator() *logic.Evaluator {
	return logic.NewEvaluator(fx.store, logic.CatalogResolver{Catalog: fx.cat})
}

// ruleShapes lists one constraint per side condition of the universal
// projection rule, whether the rule fires on it, and the route Violations
// takes when the constraint is violated.
var ruleShapes = []struct {
	name, src string
	fires     bool
	route     logic.Route
}{
	{"wildcard in the antecedent", `forall b, c: R(_, b, c) => S(b, c)`, true, logic.RouteExpanded},
	{"once-used named variables", `forall a, b, c: R(a, b, c) => c in {"C_0", "C_1"}`, true, logic.RouteExpanded},
	{"every column projected", `forall a, b, c: not R(a, b, c)`, true, logic.RouteExpanded},
	{"across an and", `forall a, b, c, b2, c2: (R(a, b, c) => c != "C_1") and (S(b2, c2) => b2 != "B_1")`, true, logic.RouteFull},
	{"across an and, empty table", `forall a, b, b2, c: not E(a, b) and (S(b2, c) => c in {"C_0", "C_1"})`, true, logic.RouteFull},
	{"two atoms, one variable each", `forall a, b, c, a2: R(a, b, c) and P(a2, a2, c) => b = "B_0"`, true, logic.RouteExpanded},
	// The second atom's named variable takes the canonical block the first
	// atom's wildcard would claim in an evaluation that projects nothing, so
	// the expansion must bind on the verdict's own blocks.
	{"two atoms of one table", `forall a, b, c: R(_, b, c) and R(a, _, c) => (b = "B_0" or a = "A_0")`, true, logic.RouteExpanded},
	{"variable repeated in one atom", `forall a, c: P(a, a, c) => c = "C_1"`, false, logic.RouteUnprojected},
	{"variable also in a comparison", `forall b, c: S(b, c) and b in {"B_0"} => c != "C_2"`, false, logic.RouteUnprojected},
	{"positive atom", `forall a, b, c: R(a, b, c) or S(b, c)`, false, logic.RouteUnprojected},
	{"atom under an inner exists", `forall b: exists c: not S(b, c)`, false, logic.RouteUnprojected},
	{"atom under an inner forall", `forall a: exists b: forall c: not R(a, b, c)`, false, logic.RouteUnprojected},
	{"existence check", `exists b, c: not S(b, c)`, false, logic.RouteFull},
}

func TestHoldsAgreesWithEval(t *testing.T) {
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
				ev := fx.evaluator()
				out, err := ev.Eval(ct)
				if err != nil {
					t.Fatal(err)
				}
				holds, err := ev.Holds(ct)
				if err != nil {
					t.Fatal(err)
				}
				if holds != out.Holds {
					t.Fatalf("trial %d: Holds = %v, Eval = %v", trial, holds, out.Holds)
				}
				if got := ev.VerdictStats().Projected == 1; got != shape.fires {
					t.Fatalf("trial %d: rule fired = %v, want %v", trial, got, shape.fires)
				}
				verdicts[holds]++
			}
			if verdicts[true] == 0 || verdicts[false] == 0 {
				t.Fatalf("holds on %d evaluations, fails on %d: the fixture decides nothing", verdicts[true], verdicts[false])
			}
		})
	}
}

// TestViolationsAgreeWithEval: Violations starts from the verdict pass and
// expands its violation set only where the body's shape allows it. On every
// shape its violation set must decode to Eval's, and it must take the route
// the shape calls for.
func TestViolationsAgreeWithEval(t *testing.T) {
	var taken [logic.NumRoutes]int
	for _, shape := range ruleShapes {
		t.Run(shape.name, func(t *testing.T) {
			f, err := logic.Parse(shape.src)
			if err != nil {
				t.Fatal(err)
			}
			ct := logic.Constraint{Name: "c", F: f}
			rng := rand.New(rand.NewSource(41))
			for trial := 0; trial < 40; trial++ {
				fx := newEvalFixture(t, rng)
				an, err := logic.Analyze(f, logic.CatalogResolver{Catalog: fx.cat})
				if err != nil {
					t.Fatal(err)
				}
				ev := fx.evaluator()
				got, err := ev.Violations(ct)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ev.Eval(ct)
				if err != nil {
					t.Fatal(err)
				}
				if got.Mode != want.Mode || got.Holds != want.Holds {
					t.Fatalf("trial %d: Violations says mode %v holds %v, Eval %v %v",
						trial, got.Mode, got.Holds, want.Mode, want.Holds)
				}
				if want.Mode == logic.CheckValidity && want.Holds && got.Violations != bdd.False {
					t.Fatalf("trial %d: the constraint holds, but Violations has a violation set", trial)
				}
				if want.Mode == logic.CheckValidity && !want.Holds {
					gs, ws := violationSet(t, fx, an, got), violationSet(t, fx, an, want)
					if len(gs) != len(ws) {
						t.Fatalf("trial %d: Violations decodes %d bindings, Eval %d", trial, len(gs), len(ws))
					}
					for w := range ws {
						if !gs[w] {
							t.Fatalf("trial %d: Violations misses %s", trial, w)
						}
					}
				}
				route := shape.route
				switch {
				case want.Mode != logic.CheckValidity:
					route = logic.RouteFull
				case want.Holds:
					route = logic.RouteHolds
				}
				if routes := ev.VerdictStats().Routes; routes[route] != 1 {
					t.Fatalf("trial %d: routes taken %v, want one %v", trial, routes, route)
				}
				taken[route]++
			}
		})
	}
	for r, n := range taken {
		if n == 0 {
			t.Errorf("no call took route %v", logic.Route(r))
		}
	}
}

// violationSet decodes an outcome's violation set into one "v=value,…" key
// per in-domain binding of the stripped variables it holds, and fails the
// test if the set holds anything else, an out-of-domain slot say.
func violationSet(t *testing.T, fx *evalFixture, an *logic.Analysis, out *logic.Outcome) map[string]bool {
	t.Helper()
	k := fx.store.Kernel()
	set := map[string]bool{}
	asn := make([]bool, k.NumVars())
	parts := make([]string, len(out.Stripped))
	var walk func(i int)
	walk = func(i int) {
		if i == len(out.Stripped) {
			if k.Eval(out.Violations, asn) {
				set[strings.Join(parts, ",")] = true
			}
			return
		}
		v := out.Stripped[i]
		d := an.Domain(v)
		for code := 0; code < d.Size(); code++ {
			for _, l := range out.Blocks[v].Lits(code) {
				asn[l.Var] = l.Value
			}
			parts[i] = v + "=" + d.Value(int32(code))
			walk(i + 1)
		}
	}
	walk(0)
	if n := k.SatCountWithin(out.Violations, strippedVars(out)); n != float64(len(set)) {
		t.Fatalf("the violation set holds %v bindings, %d of them in-domain", n, len(set))
	}
	return set
}

// strippedVars lists the kernel variables of an outcome's stripped blocks in
// ascending order, the support a violation set is counted within.
func strippedVars(out *logic.Outcome) []int {
	var vars []int
	for _, v := range out.Stripped {
		vars = append(vars, out.Blocks[v].Vars()...)
	}
	sort.Ints(vars)
	return vars
}

// customersFixture indexes a datagen.Customers relation, in schema order or,
// with prob, in the probabilistic-convergence order cvserved's default
// -order prob picks.
func customersFixture(t *testing.T, tuples int, prob bool) (*evalFixture, *datagen.CustomerData) {
	t.Helper()
	cat := relation.NewCatalog()
	data, err := datagen.Customers(cat, "CUST", datagen.CustomerSpec{Tuples: tuples, NoiseRate: 0.001}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	if prob {
		order = ordering.ProbConverge(data.Table, nil)
	}
	fx := &evalFixture{cat: cat, store: index.NewStore(index.Options{})}
	if _, err := fx.store.Build("CUST", data.Table, []int{0, 1, 2, 3, 4}, order); err != nil {
		t.Fatal(err)
	}
	return fx, data
}

func quoted(vals []string) string {
	return `{"` + strings.Join(vals, `", "`) + `"}`
}

// citiesStates is the paper's own constraint shape over the five cities
// from first on: their tuples carry one of their states. With violate, the
// fifth city's state is left out of the list, so its tuples violate.
func citiesStates(t *testing.T, data *datagen.CustomerData, first int, violate bool) logic.Constraint {
	t.Helper()
	var cities, states []string
	for c := first; c < first+5; c++ {
		cities = append(cities, datagen.CityName(c))
		if !violate || data.CityState[c] != data.CityState[first+4] {
			states = append(states, datagen.StateName(data.CityState[c]))
		}
	}
	f, err := logic.Parse(fmt.Sprintf(`forall c, s: CUST(_, _, c, s, _) and c in %s => s in %s`, quoted(cities), quoted(states)))
	if err != nil {
		t.Fatal(err)
	}
	return logic.Constraint{Name: "cs", F: f}
}

// TestVerdictWalksOnlyNamedColumns: the paper's own constraint shape names
// two of CUST's five columns. Once the (city, state) projection is memoized,
// a verdict over fresh constants costs a fraction of the full evaluation,
// which negates and disjoins the whole index.
func TestVerdictWalksOnlyNamedColumns(t *testing.T) {
	fx, data := customersFixture(t, 5000, false)
	ev := fx.evaluator()
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
	holds(citiesStates(t, data, 0, false))
	full(citiesStates(t, data, 0, false))
	hv, hOps := ops(holds, citiesStates(t, data, 5, false))
	fv, fOps := ops(full, citiesStates(t, data, 5, false))
	if hv != fv {
		t.Fatalf("Holds = %v, Eval = %v", hv, fv)
	}
	t.Logf("warmed verdict: %d kernel steps; full evaluation: %d", hOps, fOps)
	if hOps*10 >= fOps {
		t.Fatalf("a warmed verdict costs %d kernel steps, the full evaluation %d: want under a tenth", hOps, fOps)
	}
}

// TestViolationsExpandOnlyTheViolations: the wildcards of the paper's
// constraint shape are projected by the verdict pass, and Violations joins
// the verdict's few violating (city, state) pairs back to the index instead
// of negating it, so once the projection is memoized a violation set over
// fresh constants costs a fraction of the full evaluation's — and is the
// same set.
func TestViolationsExpandOnlyTheViolations(t *testing.T) {
	fx, data := customersFixture(t, 5000, true)
	ev := fx.evaluator()
	k := fx.store.Kernel()
	measure := func(eval func(logic.Constraint) (*logic.Outcome, error), ct logic.Constraint) (float64, uint64) {
		before := k.Stats().Ops
		out, err := eval(ct)
		if err != nil {
			t.Fatal(err)
		}
		ops := k.Stats().Ops - before
		if out.Holds {
			t.Fatalf("%v holds: the fixture decides nothing", ct.F)
		}
		return k.SatCountWithin(out.Violations, strippedVars(out)), ops
	}
	// Warm both paths on one set of constants, measure on another.
	measure(ev.Violations, citiesStates(t, data, 0, true))
	measure(ev.Eval, citiesStates(t, data, 0, true))
	vn, vOps := measure(ev.Violations, citiesStates(t, data, 5, true))
	fn, fOps := measure(ev.Eval, citiesStates(t, data, 5, true))
	if routes := ev.VerdictStats().Routes; routes[logic.RouteExpanded] != 2 {
		t.Fatalf("routes taken %v, want two expansions", routes)
	}
	if vn != fn {
		t.Fatalf("Violations finds %v violating bindings, Eval %v", vn, fn)
	}
	t.Logf("warmed expansion: %d kernel steps for %v bindings; full evaluation: %d", vOps, vn, fOps)
	if vOps*10 >= fOps {
		t.Fatalf("a warmed expansion costs %d kernel steps, the full evaluation %d: want under a tenth", vOps, fOps)
	}
}

// TestPredCacheIsBounded: every cached predicate binding pins a BDD. Ad-hoc
// constraints bring constants that never recur, so the cache must stop
// growing at its cap, and a table's bindings must go when its version moves.
func TestPredCacheIsBounded(t *testing.T) {
	fx, data := customersFixture(t, 5000, false)
	ev := fx.evaluator()
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
	ch, err := ix.Apply(nil, [][]int32{row})
	if err != nil {
		t.Fatal(err)
	}
	if !tab.DeleteCodes(row) {
		t.Fatal("fixture row not found")
	}
	ch.Commit()
	if ch, err = ix.Apply([][]int32{row}, nil); err != nil {
		t.Fatal(err)
	}
	tab.InsertCodes(row)
	ch.Commit()
	check(cts[0])
	if n := ev.PredCacheLen(); n != 1 {
		t.Fatalf("%d cached bindings after the table moved, want the 1 just bound", n)
	}
	if after := liveAfterGC(); after > baseline+300 {
		t.Fatalf("live after GC: %d before any binding, %d after the table moved (%d were pinned in between)", baseline, after, pinned)
	}
}
