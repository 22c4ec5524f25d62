package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/sqlengine"
)

// differential_test.go cross-checks the three constraint evaluation paths —
// BDD logical indices (under every variable-ordering method), the SQL
// baseline engine, and a brute-force model checker — on hundreds of random
// databases and random well-typed constraints. Any disagreement is a bug in
// one of the engines.

type diffSchema struct {
	cat    *relation.Catalog
	tables []*relation.Table
}

// newDiffSchema builds three tables sharing domains pairwise, with random
// contents:
//
//	R(a:D1, b:D2)   S(b:D2, c:D3)   T(a:D1, c:D3)
func newDiffSchema(rng *rand.Rand) *diffSchema {
	cat := relation.NewCatalog()
	mk := func(name string, cols ...relation.Column) *relation.Table {
		t, err := cat.CreateTable(name, cols)
		if err != nil {
			panic(err)
		}
		return t
	}
	r := mk("R", relation.Column{Name: "a", Domain: "D1"}, relation.Column{Name: "b", Domain: "D2"})
	s := mk("S", relation.Column{Name: "b", Domain: "D2"}, relation.Column{Name: "c", Domain: "D3"})
	tt := mk("T", relation.Column{Name: "a", Domain: "D1"}, relation.Column{Name: "c", Domain: "D3"})
	// Intern full domains first so all engines range over identical active
	// domains (sizes chosen to be non-powers of two to exercise the
	// domain-guard logic).
	sizes := map[string]int{"D1": 5, "D2": 3, "D3": 6}
	val := func(dom string, i int) string { return fmt.Sprintf("%s_%d", dom, i) }
	for dom, n := range sizes {
		d := cat.Domain(dom)
		for i := 0; i < n; i++ {
			d.Intern(val(dom, i))
		}
	}
	fill := func(t *relation.Table, d1, d2 string, density float64) {
		n1, n2 := sizes[d1], sizes[d2]
		for i := 0; i < n1; i++ {
			for j := 0; j < n2; j++ {
				if rng.Float64() < density {
					t.Insert(val(d1, i), val(d2, j))
				}
			}
		}
	}
	fill(r, "D1", "D2", 0.4)
	fill(s, "D2", "D3", 0.4)
	fill(tt, "D1", "D3", 0.3)
	return &diffSchema{cat: cat, tables: []*relation.Table{r, s, tt}}
}

// typed variable pool: name → domain name.
var diffVars = map[string]string{
	"x1": "D1", "x2": "D1",
	"y1": "D2", "y2": "D2",
	"z1": "D3", "z2": "D3",
}

var diffVarNames = []string{"x1", "x2", "y1", "y2", "z1", "z2"}

type diffGen struct {
	rng *rand.Rand
	cat *relation.Catalog
}

func (g *diffGen) varOf(dom string) string {
	for {
		v := diffVarNames[g.rng.Intn(len(diffVarNames))]
		if diffVars[v] == dom {
			return v
		}
	}
}

func (g *diffGen) term(dom string) logic.Term {
	if g.rng.Intn(4) == 0 {
		d := g.cat.Domain(dom)
		return logic.Const{Value: d.Value(int32(g.rng.Intn(d.Size())))}
	}
	return logic.Var{Name: g.varOf(dom)}
}

func (g *diffGen) atom() logic.Formula {
	switch g.rng.Intn(6) {
	case 0:
		return logic.Pred{Table: "R", Args: []logic.Term{g.term("D1"), g.term("D2")}}
	case 1:
		return logic.Pred{Table: "S", Args: []logic.Term{g.term("D2"), g.term("D3")}}
	case 2:
		return logic.Pred{Table: "T", Args: []logic.Term{g.term("D1"), g.term("D3")}}
	case 3:
		dom := []string{"D1", "D2", "D3"}[g.rng.Intn(3)]
		return logic.Eq{L: logic.Var{Name: g.varOf(dom)}, R: g.term(dom)}
	case 4:
		dom := []string{"D1", "D2", "D3"}[g.rng.Intn(3)]
		return logic.Neq{L: logic.Var{Name: g.varOf(dom)}, R: g.term(dom)}
	default:
		dom := []string{"D1", "D2", "D3"}[g.rng.Intn(3)]
		d := g.cat.Domain(dom)
		n := 1 + g.rng.Intn(3)
		vals := make([]string, n)
		for i := range vals {
			vals[i] = d.Value(int32(g.rng.Intn(d.Size())))
		}
		return logic.In{T: logic.Var{Name: g.varOf(dom)}, Values: vals}
	}
}

func (g *diffGen) formula(depth int) logic.Formula {
	if depth <= 0 {
		return g.atom()
	}
	switch g.rng.Intn(8) {
	case 0:
		return logic.Not{F: g.formula(depth - 1)}
	case 1:
		return logic.And{L: g.formula(depth - 1), R: g.formula(depth - 1)}
	case 2:
		return logic.Or{L: g.formula(depth - 1), R: g.formula(depth - 1)}
	case 3:
		return logic.Implies{L: g.formula(depth - 1), R: g.formula(depth - 1)}
	case 4, 5:
		v := diffVarNames[g.rng.Intn(len(diffVarNames))]
		return logic.Quant{All: g.rng.Intn(2) == 0, Vars: []string{v}, F: g.formula(depth - 1)}
	default:
		return g.atom()
	}
}

// alternating nests two quantifiers of opposite kinds above a connective of
// two literals over the inner variable. The pipeline strips only the
// leading block, so the inner quantifier stays in the body above both
// operands, where the evaluator takes AppEx/AppAll with relativized
// operands; a random formula tree puts a quantifier there only rarely.
func (g *diffGen) alternating() logic.Formula {
	outer, inner := diffVarNames[g.rng.Intn(len(diffVarNames))], diffVarNames[g.rng.Intn(len(diffVarNames))]
	literal := func() logic.Formula {
		a := g.atom()
		for !mentions(a, inner) {
			a = g.atom()
		}
		// A negated atom holds on a block's spare slots, so only the
		// domain guard keeps them out of the quantifier's range.
		if g.rng.Intn(2) == 0 {
			return logic.Not{F: a}
		}
		return a
	}
	var body logic.Formula = logic.Or{L: literal(), R: literal()}
	if g.rng.Intn(2) == 0 {
		body = logic.And{L: literal(), R: literal()}
	}
	all := g.rng.Intn(2) == 0
	return logic.Quant{All: all, Vars: []string{outer}, F: logic.Quant{All: !all, Vars: []string{inner}, F: body}}
}

// mentions reports whether atom a has variable v as an argument.
func mentions(a logic.Formula, v string) bool {
	var terms []logic.Term
	switch g := a.(type) {
	case logic.Pred:
		terms = g.Args
	case logic.Eq:
		terms = []logic.Term{g.L, g.R}
	case logic.Neq:
		terms = []logic.Term{g.L, g.R}
	case logic.In:
		terms = []logic.Term{g.T}
	}
	for _, t := range terms {
		if x, ok := t.(logic.Var); ok && x.Name == v {
			return true
		}
	}
	return false
}

// bruteCheck decides a closed, analyzed constraint by direct model checking
// over the active domains.
func bruteCheck(an *logic.Analysis, cat *relation.Catalog) bool {
	var eval func(f logic.Formula, b map[string]int32) bool
	termVal := func(t logic.Term, dom *relation.Domain, b map[string]int32) (int32, bool) {
		switch x := t.(type) {
		case logic.Var:
			return b[x.Name], true
		case logic.Const:
			return dom.Code(x.Value)
		}
		panic("bad term")
	}
	eval = func(f logic.Formula, b map[string]int32) bool {
		switch g := f.(type) {
		case logic.Truth:
			return g.Value
		case logic.Pred:
			bind := an.Preds[g.Table]
			for r := 0; r < bind.Table.Len(); r++ {
				row := bind.Table.Row(r)
				ok := true
				for i, arg := range g.Args {
					col := bind.Cols[i]
					v, present := termVal(arg, bind.Table.ColumnDomain(col), b)
					if !present || row[col] != v {
						ok = false
						break
					}
				}
				if ok {
					return true
				}
			}
			return false
		case logic.Eq:
			dom := domOfTerm(an, g.L, g.R)
			lv, lok := termVal(g.L, dom, b)
			rv, rok := termVal(g.R, dom, b)
			return lok && rok && lv == rv
		case logic.Neq:
			dom := domOfTerm(an, g.L, g.R)
			lv, lok := termVal(g.L, dom, b)
			rv, rok := termVal(g.R, dom, b)
			if !lok || !rok {
				return true // an unknown constant differs from everything
			}
			return lv != rv
		case logic.In:
			v := g.T.(logic.Var)
			dom := an.Domain(v.Name)
			for _, s := range g.Values {
				if c, ok := dom.Code(s); ok && c == b[v.Name] {
					return true
				}
			}
			return false
		case logic.Not:
			return !eval(g.F, b)
		case logic.And:
			return eval(g.L, b) && eval(g.R, b)
		case logic.Or:
			return eval(g.L, b) || eval(g.R, b)
		case logic.Implies:
			return !eval(g.L, b) || eval(g.R, b)
		case logic.Quant:
			var rec func(i int) bool
			rec = func(i int) bool {
				if i == len(g.Vars) {
					return eval(g.F, b)
				}
				v := g.Vars[i]
				dom := an.Domain(v)
				saved, had := b[v]
				defer func() {
					if had {
						b[v] = saved
					} else {
						delete(b, v)
					}
				}()
				for c := 0; c < dom.Size(); c++ {
					b[v] = int32(c)
					r := rec(i + 1)
					if g.All && !r {
						return false
					}
					if !g.All && r {
						return true
					}
				}
				return g.All
			}
			return rec(0)
		default:
			panic(fmt.Sprintf("bad formula %T", f))
		}
	}
	return eval(an.F, map[string]int32{})
}

func domOfTerm(an *logic.Analysis, l, r logic.Term) *relation.Domain {
	if v, ok := l.(logic.Var); ok {
		if d := an.Domain(v.Name); d != nil {
			return d
		}
	}
	if v, ok := r.(logic.Var); ok {
		if d := an.Domain(v.Name); d != nil {
			return d
		}
	}
	return nil
}

func TestDifferentialBDDvsSQLvsBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	// One checker per ordering method: the index layout decides how each
	// predicate binds — in place on the index's own blocks, or by one rename
	// that is in order or rebuilds out-of-order nodes as ITEs.
	methods := []core.OrderingMethod{core.OrderSchema, core.OrderProbConverge, core.OrderMaxInfGain, core.OrderRandom}
	trials := 150
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		schema := newDiffSchema(rng)
		gen := &diffGen{rng: rng, cat: schema.cat}
		var checkers []*core.Checker
		for _, method := range methods {
			chk := core.New(schema.cat, core.Options{RandomSeed: int64(trial)})
			for _, tbl := range schema.tables {
				if _, err := chk.BuildIndex(tbl.Name(), tbl.Name(), nil, method); err != nil {
					t.Fatalf("trial %d: BuildIndex(%s): %v", trial, tbl.Name(), err)
				}
			}
			checkers = append(checkers, chk)
		}
		for q := 0; q < 12; q++ {
			// Generate until the formula passes analysis (the generator can
			// produce range-unbounded variables, which Analyze rejects by
			// design).
			var f logic.Formula
			var an *logic.Analysis
			for {
				if q < 6 {
					f = gen.formula(3)
				} else {
					f = gen.alternating()
				}
				var err error
				an, err = logic.Analyze(f, logic.CatalogResolver{Catalog: schema.cat})
				if err == nil {
					break
				}
			}
			ct := logic.Constraint{Name: fmt.Sprintf("t%d_q%d", trial, q), F: f}
			want := bruteCheck(an, schema.cat)

			// SQL path.
			query, err := sqlengine.Compile(ct, logic.CatalogResolver{Catalog: schema.cat})
			if err != nil {
				t.Fatalf("trial %d q%d: sql compile: %v\nformula: %s", trial, q, err, f)
			}
			violated, _, err := query.Run()
			if err != nil {
				t.Fatalf("trial %d q%d: sql run: %v\nformula: %s", trial, q, err, f)
			}
			if violated == want {
				t.Fatalf("trial %d q%d: SQL says violated=%v, brute force says holds=%v\nformula: %s\nplan:\n%s",
					trial, q, violated, want, f, query.SQL())
			}

			// The BDD path under every ordering method.
			for ci, chk := range checkers {
				res := chk.CheckOne(ct)
				if res.Err != nil {
					t.Fatalf("trial %d q%d %v: %v\nformula: %s", trial, q, methods[ci], res.Err, f)
				}
				if res.FellBack {
					t.Fatalf("trial %d q%d %v: unexpected fallback: %v", trial, q, methods[ci], res.FallbackReason)
				}
				if res.Violated == want {
					t.Fatalf("trial %d q%d %v: BDD says violated=%v, brute force says holds=%v\nformula: %s",
						trial, q, methods[ci], res.Violated, want, f)
				}
			}
		}
	}
}

// TestSelfJoinBlockCycles: a self-join whose second occurrence permutes the
// first's variables binds them with a rename that swaps or cycles the
// index's own blocks, which moves nodes out of order. Under every ordering
// method the BDD decides it with no fallback, and its verdict and its
// violating bindings match brute force.
func TestSelfJoinBlockCycles(t *testing.T) {
	const size = 5
	// A tuple is up to three codes; the unused positions stay 0.
	type tuple = [3]int
	rows := []struct {
		name, text string
		arity      int
		// rotate returns the tuple the constraint requires beside tup.
		rotate func(tup tuple) tuple
	}{
		{"swap", `forall x, y: P(x, y) => P(y, x)`, 2,
			func(tup tuple) tuple { return tuple{tup[1], tup[0]} }},
		{"3-cycle", `forall x, y, z: P(x, y, z) => P(y, z, x)`, 3,
			func(tup tuple) tuple { return tuple{tup[1], tup[2], tup[0]} }},
	}
	methods := []core.OrderingMethod{core.OrderSchema, core.OrderProbConverge, core.OrderMaxInfGain, core.OrderRandom}
	rng := rand.New(rand.NewSource(45))
	for _, row := range rows {
		f, err := logic.Parse(row.text)
		if err != nil {
			t.Fatal(err)
		}
		ct := logic.Constraint{Name: row.name, F: f}
		for trial := 0; trial < 20; trial++ {
			cat := relation.NewCatalog()
			cols := make([]relation.Column, row.arity)
			for i := range cols {
				cols[i] = relation.Column{Name: fmt.Sprintf("c%d", i), Domain: "D"}
			}
			tbl, err := cat.CreateTable("P", cols)
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < size; v++ {
				cat.Domain("D").Intern(fmt.Sprint(v))
			}
			// Every third trial closes the table under the rotation, so
			// the constraint holds.
			has := make(map[tuple]bool)
			insert := func(tup tuple) {
				if has[tup] {
					return
				}
				has[tup] = true
				vals := make([]string, row.arity)
				for i := range vals {
					vals[i] = fmt.Sprint(tup[i])
				}
				tbl.Insert(vals...)
			}
			for n := 0; n < 3*size; n++ {
				var tup tuple
				for i := 0; i < row.arity; i++ {
					tup[i] = rng.Intn(size)
				}
				insert(tup)
				for r := 1; trial%3 == 0 && r < row.arity; r++ {
					tup = row.rotate(tup)
					insert(tup)
				}
			}
			// The violating bindings: the tuples whose rotation is missing.
			want := make(map[tuple]bool)
			for tup := range has {
				if !has[row.rotate(tup)] {
					want[tup] = true
				}
			}
			an, err := logic.Analyze(f, logic.CatalogResolver{Catalog: cat})
			if err != nil {
				t.Fatal(err)
			}
			if holds := bruteCheck(an, cat); holds != (len(want) == 0) {
				t.Fatalf("%s trial %d: brute force says holds=%v beside %d violating bindings", row.name, trial, holds, len(want))
			}
			for _, method := range methods {
				chk := core.New(cat, core.Options{RandomSeed: int64(trial)})
				if _, err := chk.BuildIndex("P", "P", nil, method); err != nil {
					t.Fatal(err)
				}
				res := chk.CheckOne(ct)
				if res.Err != nil || res.FellBack || res.Method != core.MethodBDD {
					t.Fatalf("%s trial %d %v: method %s, fallback %v, err %v", row.name, trial, method, res.Method, res.FallbackReason, res.Err)
				}
				if res.Violated != (len(want) > 0) {
					t.Fatalf("%s trial %d %v: BDD says violated=%v, brute force finds %d violating bindings", row.name, trial, method, res.Violated, len(want))
				}
				ws, err := chk.ViolationWitnesses(ct, len(has)+1)
				if err != nil {
					t.Fatal(err)
				}
				got := make(map[tuple]bool, len(ws))
				for _, w := range ws {
					var tup tuple
					for i, name := range w.Vars {
						fmt.Sscan(w.Values[i], &tup[strings.Index("xyz", name)])
					}
					got[tup] = true
				}
				if len(ws) != len(want) || len(got) != len(want) {
					t.Fatalf("%s trial %d %v: %d witnesses, brute force finds %d violating bindings", row.name, trial, method, len(ws), len(want))
				}
				for tup := range want {
					if !got[tup] {
						t.Fatalf("%s trial %d %v: violating binding %v missing from the witnesses", row.name, trial, method, tup[:row.arity])
					}
				}
			}
		}
	}
}
