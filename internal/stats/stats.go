// Package stats computes the statistical measures driving the paper's
// variable-ordering heuristics (§3): joint and conditional entropy and the
// probability-convergence measure Φ.
//
// All measures are taken over attribute sequences of a Matrix: a table's
// distinct rows projected onto chosen columns, so duplicate tuples count once,
// matching the paper's definition of a relation as a characteristic function.
package stats

import (
	"math"
	"slices"

	"repro/internal/relation"
)

// Matrix is a table's distinct rows projected onto chosen columns, stored
// column by column as codes. Attributes are positions into those columns.
type Matrix struct {
	cols [][]int32 // cols[a][r]: attribute a's code in distinct row r, renumbered below dom[a]
	dom  []int     // dom[a]: attribute a's active-domain size
	rows int
}

// NewMatrix deduplicates t's rows projected onto cols, nil meaning every
// column in schema order.
func NewMatrix(t *relation.Table, cols []int) *Matrix {
	if cols == nil {
		cols = make([]int, t.NumCols())
		for i := range cols {
			cols[i] = i
		}
	}
	k := len(cols)
	flat := make([]int32, t.Len()*k)
	rows := make([][]int32, t.Len())
	for r, row := range t.Rows() {
		rows[r] = flat[r*k : (r+1)*k : (r+1)*k]
		for i, c := range cols {
			rows[r][i] = row[c]
		}
	}
	slices.SortFunc(rows, slices.Compare)
	rows = slices.CompactFunc(rows, slices.Equal)

	m := &Matrix{cols: make([][]int32, k), dom: make([]int, k), rows: len(rows)}
	for a := range k {
		// dense[code] is one more than the code's rank among the codes the
		// column holds, and 0 for a code it does not hold.
		var top int32 = -1
		for _, row := range rows {
			top = max(top, row[a])
		}
		dense := make([]int32, top+1)
		for _, row := range rows {
			dense[row[a]] = 1
		}
		for c, held := range dense {
			if held != 0 {
				m.dom[a]++
				dense[c] = int32(m.dom[a])
			}
		}
		m.cols[a] = make([]int32, len(rows))
		for r, row := range rows {
			m.cols[a][r] = dense[row[a]] - 1
		}
	}
	return m
}

// NumAttrs returns the number of attributes.
func (m *Matrix) NumAttrs() int { return len(m.cols) }

// refine splits the groups ids (numbered below groups) by attribute a: two
// rows stay together when they share a group and a's code. It returns the
// rows' new group ids and each new group's size. The rows are visited in
// code order, so a group meets each of its codes in one run, and a run's
// first row opens a group.
func (m *Matrix) refine(ids []int32, groups, a int) ([]int32, []int) {
	col := m.cols[a]
	start := make([]int32, m.dom[a]+1)
	for _, c := range col {
		start[c+1]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	byCode := make([]int32, m.rows)
	for r, c := range col {
		byCode[start[c]] = int32(r)
		start[c]++
	}
	last := make([]int32, groups) // the last code each group met, plus one
	slot := make([]int32, groups) // the new group of that run
	out := make([]int32, m.rows)
	var sizes []int
	for _, r := range byCode {
		id, c := ids[r], col[r]+1
		if last[id] != c {
			last[id], slot[id] = c, int32(len(sizes))
			sizes = append(sizes, 0)
		}
		out[r] = slot[id]
		sizes[slot[id]]++
	}
	return out, sizes
}

// groupCounts returns the multiplicity of each distinct projection of the
// rows onto attrs, in ascending order. The order makes a floating-point sum
// over the counts depend on the counts alone, so near-ties between candidate
// attributes break the same way in every run.
func (m *Matrix) groupCounts(attrs []int) []int {
	if m.rows == 0 {
		return nil
	}
	ids, sizes := make([]int32, m.rows), []int{m.rows}
	for _, a := range attrs {
		ids, sizes = m.refine(ids, len(sizes), a)
	}
	slices.Sort(sizes)
	return sizes
}

// Entropy returns H(attrs), the joint entropy in bits of the projection of
// the rows onto the attribute sequence attrs.
func (m *Matrix) Entropy(attrs []int) float64 {
	h := 0.0
	for _, c := range m.groupCounts(attrs) {
		p := float64(c) / float64(m.rows)
		h -= p * math.Log2(p)
	}
	return h
}

// CondEntropy returns H(v | prefix), computed with the chain rule
// H(prefix, v) − H(prefix). Minimizing it over v for a fixed prefix
// maximizes the paper's information gain I(prefix; v) = H(prefix) − H(v | prefix).
func (m *Matrix) CondEntropy(prefix []int, v int) float64 {
	return m.Entropy(append(slices.Clip(prefix), v)) - m.Entropy(prefix)
}

// Phi returns the probability-convergence measure Φ(prefix) of §3.2 in its
// non-negative form: Φ(v⃗) = −Σ_x φ(v⃗=x)·log₂ φ(v⃗=x), where
// φ(v⃗=x) = |R restricted to v⃗=x| / Π_{v∉v⃗} |dom(v)| is the probability
// that a random completion of the partial tuple x lies in R, |dom(v)| being
// the active-domain size. Φ decreases towards 0 as the prefix approaches
// deciding membership outright; the Prob-Converge ordering greedily picks
// the next attribute minimizing it.
func (m *Matrix) Phi(prefix []int) float64 {
	denom := 1.0
	for a, size := range m.dom {
		if !slices.Contains(prefix, a) {
			denom *= float64(size)
		}
	}
	phi := 0.0
	for _, c := range m.groupCounts(prefix) {
		p := float64(c) / denom
		if p > 0 && p < 1 {
			phi -= p * math.Log2(p)
		}
	}
	return phi
}
