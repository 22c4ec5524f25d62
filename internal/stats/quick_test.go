package stats_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/relation"
	"repro/internal/stats"
)

// quick_test.go: information-theoretic invariants of the ordering measures
// on random tables.

type qTable struct {
	t *relation.Table
}

// randomTable returns a table of 2 to 4 columns over 2 to 7 values each and
// 1 to 60 rows, duplicates likely.
func randomTable(rng *rand.Rand, name string) *relation.Table {
	cat := relation.NewCatalog()
	cols := 2 + rng.Intn(3)
	specs := make([]relation.Column, cols)
	doms := make([]int, cols)
	for c := range specs {
		specs[c] = relation.Column{Name: fmt.Sprintf("a%d", c)}
		doms[c] = 2 + rng.Intn(6)
	}
	t, err := cat.CreateTable(name, specs)
	if err != nil {
		panic(err)
	}
	n := 1 + rng.Intn(60)
	for j := 0; j < n; j++ {
		row := make([]string, cols)
		for c := range row {
			row[c] = fmt.Sprintf("v%d", rng.Intn(doms[c]))
		}
		t.Insert(row...)
	}
	return t
}

func tableConfig(seed int64) *quick.Config {
	rng := rand.New(rand.NewSource(seed))
	counter := 0
	return &quick.Config{
		MaxCount: 60,
		Values: func(args []reflect.Value, r *rand.Rand) {
			for i := range args {
				counter++
				args[i] = reflect.ValueOf(qTable{t: randomTable(rng, fmt.Sprintf("T%d", counter))})
			}
		},
	}
}

const eps = 1e-9

func TestQuickEntropyBounds(t *testing.T) {
	property := func(q qTable) bool {
		m := stats.NewMatrix(q.t, nil)
		for c := 0; c < m.NumAttrs(); c++ {
			h := m.Entropy([]int{c})
			if h < -eps {
				return false
			}
			if h > math.Log2(float64(m.DomainSize(c)))+eps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, tableConfig(31)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEntropyMonotoneInPrefix(t *testing.T) {
	// H(a,b) ≥ H(a): adding attributes never reduces joint entropy.
	property := func(q qTable) bool {
		if q.t.NumCols() < 2 {
			return true
		}
		m := stats.NewMatrix(q.t, nil)
		return m.Entropy([]int{0, 1})+eps >= m.Entropy([]int{0})
	}
	if err := quick.Check(property, tableConfig(37)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCondEntropyNonNegative(t *testing.T) {
	property := func(q qTable) bool {
		if q.t.NumCols() < 2 {
			return true
		}
		return stats.NewMatrix(q.t, nil).CondEntropy([]int{0}, 1) >= -eps
	}
	if err := quick.Check(property, tableConfig(41)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPhiNonNegativeAndZeroOnFullPrefix(t *testing.T) {
	property := func(q qTable) bool {
		m := stats.NewMatrix(q.t, nil)
		all := make([]int, m.NumAttrs())
		for i := range all {
			all[i] = i
		}
		for i := range all {
			if m.Phi(all[:i]) < -eps {
				return false
			}
		}
		return math.Abs(m.Phi(all)) < eps
	}
	if err := quick.Check(property, tableConfig(43)); err != nil {
		t.Fatal(err)
	}
}
