// Package ordering implements the paper's two BDD variable-ordering
// heuristics over relational data (§3) plus the random and exhaustive
// baselines used in the evaluation.
//
// Orderings are permutations of a table's column indices; the index layer
// turns an ordering into a layout of finite-domain blocks (the attributes'
// blocks are placed consecutively in the chosen order, as Theorem 1
// prescribes for product-structured relations).
package ordering

import (
	"math/rand"

	"repro/internal/relation"
	"repro/internal/stats"
)

// MaxInfGain returns the ordering of t's columns cols (nil meaning all)
// produced by the information-gain greedy of §3.1 (Figure 1), as positions
// into cols: each attribute maximizes the information gain against the chosen
// prefix, which for a fixed prefix is the attribute minimizing the
// conditional entropy H(v | prefix). The first is the one of minimal entropy
// H(v), which is H(v | ∅).
func MaxInfGain(t *relation.Table, cols []int) []int {
	m := stats.NewMatrix(t, cols)
	return greedy(m, m.CondEntropy)
}

// ProbConverge returns the ordering of t's columns cols (nil meaning all)
// produced by the probability-convergence greedy of §3.2, as positions into
// cols: each step appends the attribute whose extended prefix has the
// smallest Φ measure, driving Φ to 0 (membership decided) as early as
// possible.
func ProbConverge(t *relation.Table, cols []int) []int {
	m := stats.NewMatrix(t, cols)
	return greedy(m, func(prefix []int, v int) float64 { return m.Phi(append(prefix, v)) })
}

// greedy orders m's attributes by appending, at each step, the unused
// attribute v of lowest score(order, v); the first lowest wins a tie.
func greedy(m *stats.Matrix, score func(prefix []int, v int) float64) []int {
	n := m.NumAttrs()
	order := make([]int, 0, n)
	used := make([]bool, n)
	for len(order) < n {
		best, bestScore := -1, 0.0
		for v := range n {
			if used[v] {
				continue
			}
			if s := score(order, v); best == -1 || s < bestScore {
				best, bestScore = v, s
			}
		}
		order = append(order, best)
		used[best] = true
	}
	return order
}

// Random returns a uniformly random permutation of n columns.
func Random(rng *rand.Rand, n int) []int {
	return rng.Perm(n)
}

// Identity returns the schema ordering 0..n-1.
func Identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Permutations returns every permutation of 0..n-1 in lexicographic order.
// It is meant for the exhaustive-optimal baseline on small attribute counts
// (n! permutations).
func Permutations(n int) [][]int {
	var out [][]int
	perm := Identity(n)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), perm...))
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return out
}
