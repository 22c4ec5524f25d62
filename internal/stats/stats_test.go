package stats_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/relation"
	"repro/internal/stats"
)

func table(t *testing.T, rows [][]string) *stats.Matrix {
	t.Helper()
	cat := relation.NewCatalog()
	cols := make([]relation.Column, len(rows[0]))
	for i := range cols {
		cols[i] = relation.Column{Name: string(rune('a' + i))}
	}
	tbl, err := cat.CreateTable("T", cols)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		tbl.Insert(r...)
	}
	return stats.NewMatrix(tbl, nil)
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEntropyUniform(t *testing.T) {
	m := table(t, [][]string{{"a", "x"}, {"b", "x"}, {"c", "x"}, {"d", "x"}})
	if got := m.Entropy([]int{0}); !approx(got, 2) {
		t.Fatalf("H(a) = %v, want 2", got)
	}
	if got := m.Entropy([]int{1}); !approx(got, 0) {
		t.Fatalf("H(b) = %v, want 0 (constant column)", got)
	}
	if got := m.Entropy([]int{0, 1}); !approx(got, 2) {
		t.Fatalf("H(a,b) = %v, want 2", got)
	}
}

func TestEntropySetSemantics(t *testing.T) {
	// Duplicate tuples count once.
	m := table(t, [][]string{{"a"}, {"a"}, {"a"}, {"b"}})
	if got := m.Entropy([]int{0}); !approx(got, 1) {
		t.Fatalf("H = %v, want 1 under set semantics", got)
	}
}

func TestCondEntropyAndInfoGain(t *testing.T) {
	// b is a function of a: H(b|a) = 0, so the gain is H(a).
	m := table(t, [][]string{{"a1", "x"}, {"a2", "y"}, {"a3", "x"}, {"a4", "y"}})
	if got := m.CondEntropy([]int{0}, 1); !approx(got, 0) {
		t.Fatalf("H(b|a) = %v, want 0", got)
	}
	if got := m.Entropy([]int{0}) - m.CondEntropy([]int{0}, 1); !approx(got, 2) {
		t.Fatalf("I = %v, want 2", got)
	}
	// Independent uniform columns: H(b|a) = H(b).
	m2 := table(t, [][]string{
		{"a1", "x"}, {"a1", "y"}, {"a2", "x"}, {"a2", "y"},
	})
	if got := m2.CondEntropy([]int{0}, 1); !approx(got, 1) {
		t.Fatalf("H(b|a) = %v, want 1", got)
	}
}

func TestCondEntropyChainRule(t *testing.T) {
	m := table(t, [][]string{
		{"a", "x", "1"}, {"a", "y", "2"}, {"b", "x", "2"}, {"b", "y", "1"}, {"b", "y", "2"},
	})
	// H(c | a,b) = H(a,b,c) − H(a,b), by definition.
	lhs := m.CondEntropy([]int{0, 1}, 2)
	rhs := m.Entropy([]int{0, 1, 2}) - m.Entropy([]int{0, 1})
	if !approx(lhs, rhs) {
		t.Fatalf("chain rule broken: %v != %v", lhs, rhs)
	}
}

func TestPhiFullPrefixIsZero(t *testing.T) {
	// Φ(V) = 0: with all attributes known, φ ∈ {0, 1}.
	m := table(t, [][]string{{"a", "x"}, {"b", "y"}, {"c", "x"}})
	if got := m.Phi([]int{0, 1}); !approx(got, 0) {
		t.Fatalf("Φ(V) = %v, want 0", got)
	}
}

func TestPhiPrefersDecidingAttribute(t *testing.T) {
	// R = R1(a) × R2(b,c) with R1 = {a1} (decides nothing: all values of a
	// in R have every completion present or absent together)… use a sharper
	// case: a ∈ {a1,a2} where a1 pairs with every (b), a2 with none.
	m := table(t, [][]string{
		{"a1", "x"}, {"a1", "y"}, {"a1", "z"},
		{"a2", "x"},
	})
	// Prefix ⟨a⟩: φ(a1) = 3/3 = 1 (contributes 0), φ(a2) = 1/3.
	phiA := m.Phi([]int{0})
	// Prefix ⟨b⟩: φ(x) = 2/2 = 1, φ(y) = φ(z) = 1/2 each.
	phiB := m.Phi([]int{1})
	if phiA >= phiB {
		t.Fatalf("Φ(a)=%v should be below Φ(b)=%v: a decides membership faster", phiA, phiB)
	}
}

func TestMatrixDomainSizes(t *testing.T) {
	// Active domains count distinct codes, duplicates once.
	m := table(t, [][]string{{"x", "1"}, {"y", "1"}, {"x", "2"}, {"x", "2"}})
	if m.NumAttrs() != 2 || m.DomainSize(0) != 2 || m.DomainSize(1) != 2 {
		t.Fatalf("attrs %d, domain sizes %d, %d; want 2, 2, 2", m.NumAttrs(), m.DomainSize(0), m.DomainSize(1))
	}
}

func TestPhiEmptyPrefix(t *testing.T) {
	m := table(t, [][]string{{"a", "x"}, {"b", "y"}})
	// φ(⟨⟩) = |R| / |dom product| = 2/4; Φ = −(1/2)·log(1/2) = 1/2.
	if got := m.Phi(nil); !approx(got, 0.5) {
		t.Fatalf("Φ(∅) = %v, want 0.5", got)
	}
}

// TestMeasuresAreReproducible: the sums run over group counts in an order
// fixed by the counts, so repeated calls agree to the bit, and an ordering
// heuristic breaks near-ties the same way in every run.
func TestMeasuresAreReproducible(t *testing.T) {
	var rows [][]string
	for i := 0; i < 400; i++ {
		for j := 0; j <= i%13; j++ {
			rows = append(rows, []string{fmt.Sprint(i), fmt.Sprint(j)})
		}
	}
	m := table(t, rows)
	h := m.Entropy([]int{0})
	phi := m.Phi([]int{0})
	for i := 0; i < 50; i++ {
		if got := m.Entropy([]int{0}); math.Float64bits(got) != math.Float64bits(h) {
			t.Fatalf("H(a) = %v, then %v", h, got)
		}
		if got := m.Phi([]int{0}); math.Float64bits(got) != math.Float64bits(phi) {
			t.Fatalf("Φ(a) = %v, then %v", phi, got)
		}
	}
}
