// Package stats computes the statistical measures driving the paper's
// variable-ordering heuristics (§3): joint and conditional entropy,
// information gain, and the probability-convergence measure Φ.
//
// All measures are taken over attribute sequences of a relation.Table with
// set semantics (duplicate tuples counted once), matching the paper's
// definition of a relation as a characteristic function.
package stats

import (
	"encoding/binary"
	"math"
	"slices"

	"repro/internal/relation"
)

// groupCounts returns the multiplicity of each distinct projection of the
// table onto attrs, in ascending order, and the number of distinct full
// tuples. The order makes a floating-point sum over the counts depend on the
// counts alone, not on map iteration order, so near-ties between candidate
// attributes break the same way in every run.
func groupCounts(t *relation.Table, attrs []int) ([]int, int) {
	full := make(map[string]bool, t.Len())
	counts := make(map[string]int, 64)
	var fullKey, key []byte
	for _, row := range t.Rows() {
		fullKey = fullKey[:0]
		for _, c := range row {
			fullKey = binary.AppendVarint(fullKey, int64(c))
		}
		fk := string(fullKey)
		if full[fk] {
			continue // set semantics: skip duplicate tuples
		}
		full[fk] = true
		key = key[:0]
		for _, a := range attrs {
			key = binary.AppendVarint(key, int64(row[a]))
		}
		counts[string(key)]++
	}
	sorted := make([]int, 0, len(counts))
	for _, c := range counts {
		sorted = append(sorted, c)
	}
	slices.Sort(sorted)
	return sorted, len(full)
}

// Entropy returns H(attrs), the joint entropy in bits of the projection of t
// onto the attribute sequence attrs.
func Entropy(t *relation.Table, attrs []int) float64 {
	counts, n := groupCounts(t, attrs)
	if n == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		h -= p * math.Log2(p)
	}
	return h
}

// CondEntropy returns H(v | prefix), computed with the chain rule
// H(prefix, v) − H(prefix).
func CondEntropy(t *relation.Table, prefix []int, v int) float64 {
	joint := append(append([]int(nil), prefix...), v)
	return Entropy(t, joint) - Entropy(t, prefix)
}

// InfoGain returns the paper's information gain I(prefix; v) =
// H(prefix) − H(v | prefix). Maximizing it over v for a fixed prefix is
// equivalent to minimizing CondEntropy, which is what the ordering
// heuristic does.
func InfoGain(t *relation.Table, prefix []int, v int) float64 {
	return Entropy(t, prefix) - CondEntropy(t, prefix, v)
}

// Phi returns the probability-convergence measure Φ(prefix) of §3.2 in its
// non-negative form: Φ(v⃗) = −Σ_x φ(v⃗=x)·log₂ φ(v⃗=x), where
// φ(v⃗=x) = |R restricted to v⃗=x| / Π_{v∉v⃗} |dom(v)| is the probability
// that a random completion of the partial tuple x lies in R. Φ decreases
// towards 0 as the prefix approaches deciding membership outright; the
// Prob-Converge ordering greedily picks the next attribute minimizing it.
//
// domSizes[i] is the domain size used for attribute i of t (typically the
// active-domain size).
func Phi(t *relation.Table, prefix []int, domSizes []int) float64 {
	counts, _ := groupCounts(t, prefix)
	inPrefix := make(map[int]bool, len(prefix))
	for _, a := range prefix {
		inPrefix[a] = true
	}
	denom := 1.0
	for a, size := range domSizes {
		if !inPrefix[a] {
			denom *= float64(size)
		}
	}
	phi := 0.0
	for _, c := range counts {
		p := float64(c) / denom
		if p > 0 && p < 1 {
			phi -= p * math.Log2(p)
		}
	}
	return phi
}
