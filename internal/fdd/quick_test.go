package fdd_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bdd"
	"repro/internal/fdd"
)

// quick_test.go: property-based tests over the finite-domain encoding.

// qRelation is a random small relation for quick.Check properties.
type qRelation struct {
	sizes []int   // domain sizes
	rows  [][]int // tuples, values within the domain sizes
}

func relationConfig(seed int64) *quick.Config {
	rng := rand.New(rand.NewSource(seed))
	return &quick.Config{
		MaxCount: 80,
		Values: func(args []reflect.Value, r *rand.Rand) {
			for i := range args {
				cols := 1 + rng.Intn(3)
				sizes := make([]int, cols)
				for c := range sizes {
					sizes[c] = 2 + rng.Intn(14)
				}
				n := rng.Intn(40)
				rows := make([][]int, n)
				for j := range rows {
					row := make([]int, cols)
					for c := range row {
						row[c] = rng.Intn(sizes[c])
					}
					rows[j] = row
				}
				args[i] = reflect.ValueOf(qRelation{sizes: sizes, rows: rows})
			}
		},
	}
}

func buildRel(t *testing.T, q qRelation) (*bdd.Kernel, []*fdd.Domain, bdd.Ref) {
	t.Helper()
	k := bdd.New(bdd.Config{Vars: 0})
	s := fdd.NewSpace(k)
	doms := make([]*fdd.Domain, len(q.sizes))
	for i, size := range q.sizes {
		doms[i] = s.NewDomain("d", size)
	}
	f, err := fdd.Relation(doms, q.rows)
	if err != nil {
		t.Fatal(err)
	}
	return k, doms, f
}

// TestQuickRelationCardinality: the model count of the relation BDD equals
// the number of distinct tuples.
func TestQuickRelationCardinality(t *testing.T) {
	property := func(q qRelation) bool {
		k, _, f := buildRel(t, q)
		distinct := map[string]bool{}
		for _, row := range q.rows {
			key := ""
			for _, v := range row {
				key += string(rune(v)) + ","
			}
			distinct[key] = true
		}
		return k.SatCount(f) == float64(len(distinct))
	}
	if err := quick.Check(property, relationConfig(11)); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMembership: every inserted tuple satisfies the BDD; random
// uninserted tuples do not.
func TestQuickMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	property := func(q qRelation) bool {
		k, doms, f := buildRel(t, q)
		present := map[string]bool{}
		keyOf := func(row []int) string {
			key := ""
			for _, v := range row {
				key += string(rune(v)) + ","
			}
			return key
		}
		for _, row := range q.rows {
			present[keyOf(row)] = true
		}
		check := func(row []int) bool {
			asn := make([]bool, k.NumVars())
			for _, l := range fdd.Tuple(doms, row) {
				asn[l.Var] = l.Value
			}
			return k.Eval(f, asn)
		}
		for _, row := range q.rows {
			if !check(row) {
				return false
			}
		}
		for trial := 0; trial < 10; trial++ {
			row := make([]int, len(doms))
			for c := range row {
				row[c] = rng.Intn(q.sizes[c])
			}
			if check(row) != present[keyOf(row)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, relationConfig(17)); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInsertDeleteRoundTrip: OR-ing a fresh minterm then removing it
// returns the identical canonical BDD.
func TestQuickInsertDeleteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	property := func(q qRelation) bool {
		k, doms, f := buildRel(t, q)
		// Find a tuple not in the relation (domains are tiny, so bail out
		// if the relation is saturated).
		var fresh []int
		for trial := 0; trial < 50; trial++ {
			row := make([]int, len(doms))
			for c := range row {
				row[c] = rng.Intn(q.sizes[c])
			}
			asn := make([]bool, k.NumVars())
			for _, l := range fdd.Tuple(doms, row) {
				asn[l.Var] = l.Value
			}
			if !k.Eval(f, asn) {
				fresh = row
				break
			}
		}
		if fresh == nil {
			return true
		}
		m := k.Minterm(fdd.Tuple(doms, fresh))
		g := k.Or(f, m)
		back := k.Diff(g, m)
		return back == f
	}
	if err := quick.Check(property, relationConfig(23)); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLessConst: the comparator BDD accepts exactly the values below
// the constant.
func TestQuickLessConst(t *testing.T) {
	property := func(sizeRaw uint8, cRaw uint8) bool {
		size := 2 + int(sizeRaw)%60
		c := int(cRaw) % (size + 4)
		k := bdd.New(bdd.Config{Vars: 0})
		s := fdd.NewSpace(k)
		d := s.NewDomain("x", size)
		f := d.LessConst(c)
		for v := 0; v < 1<<d.Bits(); v++ {
			asn := make([]bool, k.NumVars())
			for _, l := range d.Lits(v) {
				asn[l.Var] = l.Value
			}
			if k.Eval(f, asn) != (v < c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickProjectionCommutes: ∃ over one domain of the relation BDD equals
// the BDD of the projected rows.
func TestQuickProjectionCommutes(t *testing.T) {
	property := func(q qRelation) bool {
		if len(q.sizes) < 2 {
			return true
		}
		k, doms, f := buildRel(t, q)
		proj := fdd.Exists(f, doms[0])
		var rows [][]int
		for _, row := range q.rows {
			rows = append(rows, row[1:])
		}
		want, err := fdd.Relation(doms[1:], rows)
		if err != nil {
			return false
		}
		_ = k
		return proj == want
	}
	if err := quick.Check(property, relationConfig(29)); err != nil {
		t.Fatal(err)
	}
}
