package stats_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ordering"
	"repro/internal/relation"
	"repro/internal/stats"
)

// reference_test.go: the measures as they were computed before the code
// matrix — per call, over the table's rows, grouped in maps keyed by varint
// byte strings — kept as the reference the matrix must match bit for bit, so
// that every ordering the heuristics choose stays the same.

// refGroupCounts returns the multiplicity of each distinct projection of t
// onto attrs, ascending, and the number of distinct full tuples.
func refGroupCounts(t *relation.Table, attrs []int) ([]int, int) {
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
			continue
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

func refEntropy(t *relation.Table, attrs []int) float64 {
	counts, n := refGroupCounts(t, attrs)
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

func refPhi(t *relation.Table, prefix []int, domSizes []int) float64 {
	counts, _ := refGroupCounts(t, prefix)
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

// refDomainSizes counts each column's distinct codes.
func refDomainSizes(t *relation.Table) []int {
	out := make([]int, t.NumCols())
	for c := range out {
		seen := map[int32]bool{}
		for _, row := range t.Rows() {
			seen[row[c]] = true
		}
		out[c] = len(seen)
	}
	return out
}

// refProjection copies t's rows projected onto cols into a scratch table,
// which is what the measures read before the matrix took a column list.
func refProjection(t *relation.Table, cols []int) *relation.Table {
	specs := make([]relation.Column, len(cols))
	for i, col := range cols {
		specs[i] = relation.Column{Name: t.ColumnNames()[col]}
	}
	proj, err := relation.NewCatalog().CreateTable(t.Name()+"$proj", specs)
	if err != nil {
		panic(err)
	}
	for _, row := range t.Rows() {
		enc := make([]int32, len(cols))
		for i, col := range cols {
			enc[i] = row[col]
		}
		proj.InsertCodes(enc)
	}
	return proj
}

// matchReference compares Entropy, CondEntropy and Phi of the matrix of t
// over cols with the reference on every prefix of every ordering of the
// columns. The reference measures depend on a prefix's attribute set alone,
// so they are computed once per set.
func matchReference(t *testing.T, name string, tbl *relation.Table, cols []int) {
	t.Helper()
	ref := tbl
	if cols != nil {
		ref = refProjection(tbl, cols)
	}
	dom := refDomainSizes(ref)
	type measures struct{ h, phi float64 }
	bySet := map[int]measures{}
	refOf := func(prefix []int) measures {
		set := 0
		for _, a := range prefix {
			set |= 1 << a
		}
		r, ok := bySet[set]
		if !ok {
			r = measures{refEntropy(ref, prefix), refPhi(ref, prefix, dom)}
			bySet[set] = r
		}
		return r
	}
	m := stats.NewMatrix(tbl, cols)
	for a, want := range dom {
		if got := m.DomainSize(a); got != want {
			t.Fatalf("%s: domain size of attribute %d = %d, want %d", name, a, got, want)
		}
	}
	seen := map[string]bool{}
	for _, perm := range ordering.Permutations(m.NumAttrs()) {
		for i := 0; i <= len(perm); i++ {
			prefix := perm[:i]
			key := fmt.Sprint(prefix)
			if seen[key] {
				continue // orderings share prefixes, and the measures keep no state
			}
			seen[key] = true
			want := refOf(prefix)
			if got := m.Entropy(prefix); got != want.h {
				t.Fatalf("%s: H(%v) = %v, reference %v", name, prefix, got, want.h)
			}
			if got := m.Phi(prefix); got != want.phi {
				t.Fatalf("%s: Φ(%v) = %v, reference %v", name, prefix, got, want.phi)
			}
			if i == 0 {
				continue
			}
			wantCond := want.h - refOf(prefix[:i-1]).h
			if got := m.CondEntropy(prefix[:i-1], prefix[i-1]); got != wantCond {
				t.Fatalf("%s: H(%d | %v) = %v, reference %v", name, prefix[i-1], prefix[:i-1], got, wantCond)
			}
		}
	}
}

func TestMeasuresMatchReferenceOnCustomers(t *testing.T) {
	cat := relation.NewCatalog()
	data, err := datagen.Customers(cat, "CUST", datagen.CustomerSpec{Tuples: 20000, NoiseRate: 0.001}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	matchReference(t, "CUST", data.Table, nil)
	// Column subsets, as an index over a projection orders them: fig5's
	// (areacode, city, state) and two columns out of schema order.
	matchReference(t, "CUST[0 2 3]", data.Table, []int{0, 2, 3})
	matchReference(t, "CUST[4 1]", data.Table, []int{4, 1})
}

func TestMeasuresMatchReferenceOnProducts(t *testing.T) {
	for _, products := range []int{1, 4, 8, 0} {
		rng := rand.New(rand.NewSource(int64(100 + products)))
		tbl, err := datagen.KProd(relation.NewCatalog(), "R", datagen.ProdSpec{
			Products: products, Attrs: 5, Tuples: 2000, DomSize: 100,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		matchReference(t, fmt.Sprintf("%d-PROD", products), tbl, nil)
	}
}

func TestMeasuresMatchReferenceOnRandomTables(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("T%d", i)
		matchReference(t, name, randomTable(rng, name), nil)
	}
	empty, err := relation.NewCatalog().CreateTable("E", []relation.Column{{Name: "a"}, {Name: "b"}, {Name: "c"}})
	if err != nil {
		t.Fatal(err)
	}
	matchReference(t, "empty", empty, nil)
	matchReference(t, "empty[2 0]", empty, []int{2, 0})
	dups, err := relation.NewCatalog().CreateTable("D", []relation.Column{{Name: "a"}, {Name: "b"}, {Name: "c"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]string{{"x", "1", "p"}, {"x", "1", "p"}, {"y", "1", "p"}, {"x", "2", "q"}, {"y", "1", "p"}, {"x", "2", "p"}} {
		dups.Insert(row...)
	}
	matchReference(t, "duplicates", dups, nil)
	// Projected rows collide where full rows do not.
	matchReference(t, "duplicates[0 1]", dups, []int{0, 1})
}
