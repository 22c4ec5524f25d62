package core_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/relation"
)

// witness_test.go verifies that the witness bindings decoded from the
// violation BDD are exactly the rows the compiled SQL violation query
// returns, across randomized databases and several constraint classes.

func witnessSet(t *testing.T, ws []core.Witness) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	for _, w := range ws {
		// Key on sorted var=value pairs so column order differences between
		// the BDD and SQL paths don't matter.
		pairs := make([]string, len(w.Vars))
		for i := range w.Vars {
			pairs[i] = w.Vars[i] + "=" + w.Values[i]
		}
		sort.Strings(pairs)
		out[strings.Join(pairs, ",")] = true
	}
	return out
}

func TestWitnessesMatchSQLRows(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 25; trial++ {
		cat := relation.NewCatalog()
		emp, err := cat.CreateTable("EMP", []relation.Column{
			{Name: "id", Domain: "id"},
			{Name: "dept", Domain: "dept"},
			{Name: "site", Domain: "site"},
		})
		if err != nil {
			t.Fatal(err)
		}
		dept, err := cat.CreateTable("DEPT", []relation.Column{
			{Name: "dept", Domain: "dept"},
			{Name: "site", Domain: "site"},
		})
		if err != nil {
			t.Fatal(err)
		}
		nDept, nSite := 4+rng.Intn(4), 3+rng.Intn(3)
		for d := 0; d < nDept; d++ {
			if rng.Intn(5) > 0 { // some departments are missing on purpose
				dept.Insert(fmt.Sprintf("d%d", d), fmt.Sprintf("s%d", d%nSite))
			}
		}
		for i := 0; i < 60; i++ {
			emp.Insert(fmt.Sprintf("e%02d", i),
				fmt.Sprintf("d%d", rng.Intn(nDept)),
				fmt.Sprintf("s%d", rng.Intn(nSite)))
		}
		chk := core.New(cat, core.Options{})
		for _, tbl := range []string{"EMP", "DEPT"} {
			if _, err := chk.BuildIndex(tbl, tbl, nil, core.OrderProbConverge); err != nil {
				t.Fatal(err)
			}
		}
		sources := []string{
			// referential: the employee's department exists
			`forall e, d, s: EMP(e, d, s) => exists s2: DEPT(d, s2)`,
			// site consistency between employee and department
			`forall e, d, s, s2: EMP(e, d, s) and DEPT(d, s2) => s = s2`,
			// membership
			`forall e, d, s: EMP(e, d, s) => d in {"d0", "d1", "d2"}`,
			// inequality
			`forall e, d, s: EMP(e, d, s) and d = "d0" => s != "s1"`,
		}
		for qi, src := range sources {
			f, err := logic.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			ct := logic.Constraint{Name: fmt.Sprintf("c%d", qi), F: f}
			ws, err := chk.ViolationWitnesses(ct, 10000)
			if err != nil {
				t.Fatalf("trial %d c%d: witnesses: %v", trial, qi, err)
			}
			rows, err := chk.ViolatingRows(ct)
			if err != nil {
				t.Fatalf("trial %d c%d: sql: %v", trial, qi, err)
			}
			// Convert SQL rows into the same canonical set form.
			sqlWs := make([]core.Witness, rows.Len())
			for i := 0; i < rows.Len(); i++ {
				sqlWs[i] = core.Witness{Vars: rows.Vars, Values: rows.Decode(i)}
			}
			got, want := witnessSet(t, ws), witnessSet(t, sqlWs)
			if len(got) != len(want) {
				t.Fatalf("trial %d c%d: %d BDD witnesses vs %d SQL rows\nbdd: %v\nsql: %v",
					trial, qi, len(got), len(want), got, want)
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("trial %d c%d: SQL violation %q missing from BDD witnesses", trial, qi, k)
				}
			}
		}
	}
}

func TestWitnessLimitRespected(t *testing.T) {
	cat := relation.NewCatalog()
	tbl, err := cat.CreateTable("T", []relation.Column{{Name: "a", Domain: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		tbl.Insert(fmt.Sprintf("v%02d", i))
	}
	chk := core.New(cat, core.Options{})
	if _, err := chk.BuildIndex("T", "T", nil, core.OrderSchema); err != nil {
		t.Fatal(err)
	}
	f, err := logic.Parse(`forall a: T(a) => a = "v00"`) // 49 violations
	if err != nil {
		t.Fatal(err)
	}
	ct := logic.Constraint{Name: "lim", F: f}
	ws, err := chk.ViolationWitnesses(ct, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 7 {
		t.Fatalf("limit 7 returned %d witnesses", len(ws))
	}
	ws, err = chk.ViolationWitnesses(ct, 0)
	if err != nil || ws != nil {
		t.Fatalf("limit 0 should return nothing, got %v, %v", ws, err)
	}
	all, err := chk.ViolationWitnesses(ct, 1000)
	if err != nil || len(all) != 49 {
		t.Fatalf("expected all 49 witnesses, got %d, %v", len(all), err)
	}
}

// TestWitnessesOfValuesInternedAfterTheBuild: an index block is sized to its
// domain when the index is built, and an insert may intern a new value into
// one of the block's spare slots. A violation by that tuple is a violation
// like any other: its witness must be decoded, not skipped as slack.
func TestWitnessesOfValuesInternedAfterTheBuild(t *testing.T) {
	cat := relation.NewCatalog()
	emp, err := cat.CreateTable("EMP", []relation.Column{{Name: "id", Domain: "id"}, {Name: "dept", Domain: "dept"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][2]string{{"e0", "d0"}, {"e1", "d0"}, {"e2", "d1"}} {
		emp.Insert(row[0], row[1])
	}
	chk := core.New(cat, core.Options{})
	if _, err := chk.BuildIndex("EMP", "EMP", nil, core.OrderSchema); err != nil {
		t.Fatal(err)
	}
	// Three ids fill three of the id block's four slots; e3 takes the fourth.
	if _, err := chk.Apply([]core.Update{{Table: "EMP", Op: core.UpdateInsert, Values: []string{"e3", "d1"}}}); err != nil {
		t.Fatal(err)
	}
	f, err := logic.Parse(`forall e, d: EMP(e, d) and d = "d1" => e = "e2"`)
	if err != nil {
		t.Fatal(err)
	}
	ct := logic.Constraint{Name: "only_e2", F: f}
	if res := chk.CheckOne(ct); res.Err != nil || !res.Violated {
		t.Fatalf("CheckOne: %+v, want violated", res)
	}
	ws, err := chk.ViolationWitnesses(ct, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := witnessSet(t, ws); len(got) != 1 || !got["d=d1,e=e3"] {
		t.Fatalf("witnesses %v, want the one binding e=e3, d=d1", ws)
	}
}

func TestExistentialConstraintHasNoWitnesses(t *testing.T) {
	cat := relation.NewCatalog()
	tbl, err := cat.CreateTable("T", []relation.Column{{Name: "a", Domain: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	tbl.Insert("x")
	chk := core.New(cat, core.Options{})
	if _, err := chk.BuildIndex("T", "T", nil, core.OrderSchema); err != nil {
		t.Fatal(err)
	}
	f, err := logic.Parse(`exists a: T(a) and a = "missing"`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chk.ViolationWitnesses(logic.Constraint{Name: "e", F: f}, 5); err == nil {
		t.Fatal("existence checks have no per-binding witnesses; expected an error")
	}
	// But CheckOne still decides it.
	res := chk.CheckOne(logic.Constraint{Name: "e", F: f})
	if res.Err != nil || !res.Violated {
		t.Fatalf("existence constraint should be violated: %+v", res)
	}
}

// TestVerdictAgreesWithWitnesses: CheckOne decides on a projection of the
// index — it never binds a column the constraint uses once — while
// ViolationWitnesses runs the full evaluation. The two must agree on whether
// anything is violated, and a witness must still bind every variable of the
// stripped ∀-block, the anonymous ones included.
func TestVerdictAgreesWithWitnesses(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sources := []struct {
		src  string
		vars string // the witness variables, sorted
	}{
		{`forall d, s: EMP(_, d, s) => s in {"s0", "s1"}`, "_anon1 d s"},
		{`forall s: EMP(_, _, s) => s != "s2"`, "_anon1 _anon2 s"},
		{`forall e, d, s: EMP(e, d, s) and d = "d0" => s != "s1"`, "d e s"},
		{`forall e, d, s: EMP(e, d, s) => d in {"d0", "d1", "d2"}`, "d e s"},
	}
	verdicts := map[bool]int{}
	for trial := 0; trial < 40; trial++ {
		cat := relation.NewCatalog()
		emp, err := cat.CreateTable("EMP", []relation.Column{
			{Name: "id", Domain: "id"},
			{Name: "dept", Domain: "dept"},
			{Name: "site", Domain: "site"},
		})
		if err != nil {
			t.Fatal(err)
		}
		nDept, nSite := 2+rng.Intn(3), 2+rng.Intn(2)
		for i := 0; i < 1+rng.Intn(12); i++ {
			emp.Insert(fmt.Sprintf("e%02d", i), fmt.Sprintf("d%d", rng.Intn(nDept)), fmt.Sprintf("s%d", rng.Intn(nSite)))
		}
		chk := core.New(cat, core.Options{})
		if _, err := chk.BuildIndex("EMP", "EMP", nil, core.OrderProbConverge); err != nil {
			t.Fatal(err)
		}
		for qi, q := range sources {
			f, err := logic.Parse(q.src)
			if err != nil {
				t.Fatal(err)
			}
			ct := logic.Constraint{Name: fmt.Sprintf("c%d", qi), F: f}
			res := chk.CheckOne(ct)
			if res.Err != nil || res.Method != core.MethodBDD {
				t.Fatalf("trial %d c%d: %+v", trial, qi, res)
			}
			ws, err := chk.ViolationWitnesses(ct, 100)
			if err != nil {
				t.Fatalf("trial %d c%d: witnesses: %v", trial, qi, err)
			}
			if res.Violated != (len(ws) > 0) {
				t.Fatalf("trial %d c%d: CheckOne says violated=%v, ViolationWitnesses finds %d", trial, qi, res.Violated, len(ws))
			}
			verdicts[res.Violated]++
			for _, w := range ws {
				vars := append([]string(nil), w.Vars...)
				sort.Strings(vars)
				if got := strings.Join(vars, " "); got != q.vars || len(w.Values) != len(w.Vars) {
					t.Fatalf("trial %d c%d: witness binds %q (%d values), want %q", trial, qi, got, len(w.Values), q.vars)
				}
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("%d violated, %d satisfied: the fixture decides nothing", verdicts[true], verdicts[false])
	}
}
