package fdd_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/fdd"
)

func newSpace() (*bdd.Kernel, *fdd.Space) {
	k := bdd.New(bdd.Config{Vars: 0})
	return k, fdd.NewSpace(k)
}

func TestDomainBits(t *testing.T) {
	_, s := newSpace()
	cases := []struct{ size, bits int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {100, 7}, {281, 9}, {10894, 14}, {17557, 15}, {50, 6},
	}
	for _, c := range cases {
		d := s.NewDomain("d", c.size)
		if d.Bits() != c.bits {
			t.Errorf("size %d: bits = %d, want %d", c.size, d.Bits(), c.bits)
		}
	}
}

func TestCustomerIndexBitWidths(t *testing.T) {
	// The paper's two logical indices: (areacode, city, state) needs
	// 9+14+6 = 29 boolean variables, (city, state, zipcode) needs
	// 14+6+15 = 35.
	_, s := newSpace()
	total := 0
	for _, size := range []int{281, 10894, 50} {
		total += s.NewDomain("a", size).Bits()
	}
	if total != 29 {
		t.Errorf("ncs index: %d vars, want 29", total)
	}
	total = 0
	for _, size := range []int{10894, 50, 17557} {
		total += s.NewDomain("b", size).Bits()
	}
	if total != 35 {
		t.Errorf("csz index: %d vars, want 35", total)
	}
}

func TestEqConst(t *testing.T) {
	k, s := newSpace()
	d := s.NewDomain("x", 10)
	for v := 0; v < 10; v++ {
		f := d.EqConst(v)
		for w := 0; w < 10; w++ {
			a := make([]bool, k.NumVars())
			for _, l := range d.Lits(w) {
				a[l.Var] = l.Value
			}
			if k.Eval(f, a) != (v == w) {
				t.Fatalf("EqConst(%d) evaluated at %d wrong", v, w)
			}
		}
	}
}

func TestAmong(t *testing.T) {
	k, s := newSpace()
	d := s.NewDomain("x", 64)
	set := []int{3, 17, 42, 63, 0}
	f := d.Among(set)
	in := map[int]bool{}
	for _, v := range set {
		in[v] = true
	}
	for w := 0; w < 64; w++ {
		a := make([]bool, k.NumVars())
		for _, l := range d.Lits(w) {
			a[l.Var] = l.Value
		}
		if k.Eval(f, a) != in[w] {
			t.Fatalf("Among wrong at %d", w)
		}
	}
	if d.Among(nil) != bdd.False {
		t.Fatal("empty Among must be False")
	}
	if got := k.SatCount(f); got != float64(len(set)) {
		t.Fatalf("Among SatCount = %v, want %d", got, len(set))
	}
}

func TestEqVarConsecutiveVsInterleaved(t *testing.T) {
	// Consecutive blocks: x=y BDD is exponential in bits.
	// Interleaved blocks: linear in bits. This size gap is the motivation
	// for the paper's rename-based join rewrite.
	k1, s1 := newSpace()
	x1 := s1.NewDomain("x", 256)
	y1 := s1.NewDomain("y", 256)
	eqCons := fdd.EqVar(x1, y1)
	k2, s2 := newSpace()
	ds := s2.NewInterleavedDomains([]string{"x", "y"}, 256)
	eqInter := fdd.EqVar(ds[0], ds[1])
	cons, inter := k1.NodeCount(eqCons), k2.NodeCount(eqInter)
	if cons <= inter*4 {
		t.Fatalf("expected consecutive equality BDD to be much larger: consecutive=%d interleaved=%d", cons, inter)
	}
	if inter > 3*8+1 {
		t.Fatalf("interleaved equality BDD too large: %d nodes", inter)
	}
	// Semantics: both must accept exactly the diagonal.
	count := k1.SatCount(eqCons)
	if count != 256 {
		t.Fatalf("consecutive equality has %v models, want 256", count)
	}
	if k2.SatCount(eqInter) != 256 {
		t.Fatal("interleaved equality model count wrong")
	}
}

func TestEqVarSemantics(t *testing.T) {
	k, s := newSpace()
	x := s.NewDomain("x", 8)
	y := s.NewDomain("y", 8)
	f := fdd.EqVar(x, y)
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			asn := make([]bool, k.NumVars())
			for _, l := range x.Lits(a) {
				asn[l.Var] = l.Value
			}
			for _, l := range y.Lits(b) {
				asn[l.Var] = l.Value
			}
			if k.Eval(f, asn) != (a == b) {
				t.Fatalf("EqVar wrong at (%d,%d)", a, b)
			}
		}
	}
}

func TestMintermAndValueRoundTrip(t *testing.T) {
	k, s := newSpace()
	doms := []*fdd.Domain{s.NewDomain("a", 10), s.NewDomain("b", 100), s.NewDomain("c", 3)}
	vals := []int{7, 93, 2}
	m := k.Minterm(fdd.Tuple(doms, vals))
	lits, ok := k.AnySat(m)
	if !ok {
		t.Fatal("minterm unsatisfiable")
	}
	a := make([]bool, k.NumVars())
	for _, l := range lits {
		a[l.Var] = l.Value
	}
	for i, d := range doms {
		if d.Value(a) != vals[i] {
			t.Fatalf("domain %d decoded %d, want %d", i, d.Value(a), vals[i])
		}
	}
	if k.SatCount(m) != 1 {
		t.Fatalf("minterm SatCount = %v", k.SatCount(m))
	}
}

func TestRelationMatchesPerTupleOr(t *testing.T) {
	k, s := newSpace()
	doms := []*fdd.Domain{s.NewDomain("a", 16), s.NewDomain("b", 16), s.NewDomain("c", 16)}
	rng := rand.New(rand.NewSource(1))
	rows := make([][]int, 200)
	for i := range rows {
		rows[i] = []int{rng.Intn(16), rng.Intn(16), rng.Intn(16)}
	}
	bulk, err := fdd.Relation(doms, rows)
	if err != nil {
		t.Fatalf("Relation: %v", err)
	}
	inc := bdd.False
	for _, row := range rows {
		inc = k.Or(inc, k.Minterm(fdd.Tuple(doms, row)))
	}
	if bulk != inc {
		t.Fatal("bulk relation != OR of minterms")
	}
}

func TestRelationDuplicatesAndEmpty(t *testing.T) {
	k, s := newSpace()
	doms := []*fdd.Domain{s.NewDomain("a", 4), s.NewDomain("b", 4)}
	f, err := fdd.Relation(doms, [][]int{{1, 2}, {1, 2}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if k.SatCount(f) != 2 {
		t.Fatalf("duplicate rows must collapse: SatCount = %v", k.SatCount(f))
	}
	empty, err := fdd.Relation(doms, nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty != bdd.False {
		t.Fatal("empty relation must be False")
	}
}

func TestRelationRejectsBadRows(t *testing.T) {
	_, s := newSpace()
	doms := []*fdd.Domain{s.NewDomain("a", 4)}
	if _, err := fdd.Relation(doms, [][]int{{1, 2}}); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if _, err := fdd.Relation(doms, [][]int{{-1}}); err == nil {
		t.Fatal("negative value accepted")
	}
	if _, err := fdd.Relation(doms, [][]int{{4}}); err == nil {
		t.Fatal("out-of-range value accepted")
	}
}

func TestQuantification(t *testing.T) {
	k, s := newSpace()
	a := s.NewDomain("a", 8)
	b := s.NewDomain("b", 8)
	rel, err := fdd.Relation([]*fdd.Domain{a, b}, [][]int{{1, 2}, {1, 5}, {3, 7}})
	if err != nil {
		t.Fatal(err)
	}
	// ∃b R(a,b) is the projection onto a: {1, 3}.
	proj := fdd.Exists(rel, b)
	if proj != a.Among([]int{1, 3}) {
		t.Fatal("projection via Exists wrong")
	}
	// ∀b R(a,b) is empty: no a relates to every b.
	if fdd.Forall(rel, b) != bdd.False {
		t.Fatal("Forall should be empty")
	}
	// ∀a∀b over the full space.
	if fdd.Forall(bdd.True, a, b) != bdd.True {
		t.Fatal("Forall of True must be True")
	}
	_ = k
}

func TestReplaceMapRenamesRelation(t *testing.T) {
	k, s := newSpace()
	a := s.NewDomain("a", 32)
	b := s.NewDomain("b", 32)
	rows := [][]int{{1}, {17}, {31}}
	relA, err := fdd.Relation([]*fdd.Domain{a}, rows)
	if err != nil {
		t.Fatal(err)
	}
	m, err := fdd.ReplaceMap([]*fdd.Domain{a}, []*fdd.Domain{b})
	if err != nil {
		t.Fatalf("ReplaceMap: %v", err)
	}
	relB := k.Replace(relA, m)
	want, err := fdd.Relation([]*fdd.Domain{b}, rows)
	if err != nil {
		t.Fatal(err)
	}
	if relB != want {
		t.Fatal("renamed relation differs from direct construction")
	}
}

func TestReplaceMapWidthMismatch(t *testing.T) {
	_, s := newSpace()
	a := s.NewDomain("a", 32)
	c := s.NewDomain("c", 4)
	if _, err := fdd.ReplaceMap([]*fdd.Domain{a}, []*fdd.Domain{c}); err == nil {
		t.Fatal("width mismatch accepted")
	}
}

func TestRelationUnderBudgetAborts(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 0, NodeBudget: 32})
	s := fdd.NewSpace(k)
	doms := []*fdd.Domain{s.NewDomain("a", 256), s.NewDomain("b", 256)}
	rng := rand.New(rand.NewSource(2))
	rows := make([][]int, 500)
	for i := range rows {
		rows[i] = []int{rng.Intn(256), rng.Intn(256)}
	}
	_, err := fdd.Relation(doms, rows)
	if err == nil {
		t.Fatal("expected budget error")
	}
	if !errors.Is(k.Err(), bdd.ErrBudget) {
		t.Fatalf("kernel error = %v, want ErrBudget", k.Err())
	}
}

func TestInterleavedDomainValueDecode(t *testing.T) {
	k, s := newSpace()
	ds := s.NewInterleavedDomains([]string{"x", "y", "z"}, 100)
	m := k.Minterm(fdd.Tuple(ds, []int{42, 7, 99}))
	lits, _ := k.AnySat(m)
	a := make([]bool, k.NumVars())
	for _, l := range lits {
		a[l.Var] = l.Value
	}
	for i, want := range []int{42, 7, 99} {
		if got := ds[i].Value(a); got != want {
			t.Fatalf("interleaved domain %d decoded %d, want %d", i, got, want)
		}
	}
}
