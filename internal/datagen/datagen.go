// Package datagen generates the paper's evaluation workloads: the
// product-structured relation families of §5.1 (1-PROD, 4-PROD, 8-PROD,
// RANDOM), a synthetic stand-in for the paper's 406,769-tuple US/Canada
// telephone customer dataset with matching schema and active-domain sizes,
// the membership-constraint relation of Figure 5(a), and the Q1–Q5
// constraint workloads of Table 1.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/relation"
)

// ProdSpec configures the k-PROD generator.
type ProdSpec struct {
	// Products is k: the relation is a union of k Cartesian products
	// (1 = the most structured family, 0 = fully random).
	Products int
	// Attrs is the number of attributes (the paper uses 5).
	Attrs int
	// Tuples is the approximate target cardinality (the paper uses 400,000).
	Tuples int
	// DomSize is the per-attribute active-domain size cap (the paper uses
	// "at most 100").
	DomSize int
}

// KProd generates one relation of the k-PROD family into the catalog: a
// union of Products Cartesian products of smaller random relations over
// randomly partitioned, non-overlapping attribute sets. Products = 0
// produces a fully random relation of the same shape (the RANDOM family).
func KProd(cat *relation.Catalog, name string, spec ProdSpec, rng *rand.Rand) (*relation.Table, error) {
	if spec.Attrs < 2 {
		return nil, fmt.Errorf("datagen: need at least 2 attributes, got %d", spec.Attrs)
	}
	cols := make([]relation.Column, spec.Attrs)
	for i := range cols {
		cols[i] = relation.Column{
			Name:   fmt.Sprintf("a%d", i),
			Domain: fmt.Sprintf("%s.a%d", name, i),
		}
	}
	t, err := cat.CreateTable(name, cols)
	if err != nil {
		return nil, err
	}
	// Intern the full value range so the per-column dictionaries (and hence
	// BDD block widths) do not depend on which values happen to be drawn.
	for i := 0; i < spec.Attrs; i++ {
		d := cat.Domain(cols[i].Domain)
		for v := 0; v < spec.DomSize; v++ {
			d.Intern(valName(v))
		}
	}
	if spec.Products == 0 {
		for n := 0; n < spec.Tuples; n++ {
			row := make([]string, spec.Attrs)
			for i := range row {
				row[i] = valName(rng.Intn(spec.DomSize))
			}
			t.Insert(row...)
		}
		return t, nil
	}
	perProduct := spec.Tuples / spec.Products
	for p := 0; p < spec.Products; p++ {
		groups := partitionAttrs(spec.Attrs, rng)
		factors := make([][][]int, len(groups))
		// Choose factor cardinalities whose product approximates perProduct:
		// distribute the size geometrically over the groups.
		sizes := factorSizes(perProduct, groups, spec.DomSize, rng)
		for gi, group := range groups {
			factors[gi] = randomFactor(rng, len(group), sizes[gi], spec.DomSize)
		}
		// Enumerate the product.
		emitProduct(t, groups, factors, spec.Attrs)
	}
	return t, nil
}

func valName(v int) string { return fmt.Sprintf("v%03d", v) }

// partitionAttrs splits 0..n-1 into 2 or 3 random non-overlapping groups.
func partitionAttrs(n int, rng *rand.Rand) [][]int {
	perm := rng.Perm(n)
	k := 2
	if n >= 4 && rng.Intn(2) == 0 {
		k = 3
	}
	// Random cut points leaving every group nonempty.
	cuts := map[int]bool{}
	for len(cuts) < k-1 {
		cuts[1+rng.Intn(n-1)] = true
	}
	var groups [][]int
	start := 0
	for i := 1; i <= n; i++ {
		if i == n || cuts[i] {
			groups = append(groups, perm[start:i])
			start = i
		}
	}
	return groups
}

// factorSizes picks per-group factor cardinalities with product ≈ target,
// respecting each group's maximum possible cardinality.
func factorSizes(target int, groups [][]int, domSize int, rng *rand.Rand) []int {
	sizes := make([]int, len(groups))
	remaining := float64(target)
	maxCard := func(i int) float64 {
		return math.Pow(float64(domSize), float64(len(groups[i])))
	}
	for i := range groups {
		left := len(groups) - i - 1
		// Geometric split of what remains.
		s := math.Pow(remaining, 1/float64(left+1))
		if m := maxCard(i); s > m {
			s = m
		}
		if s < 1 {
			s = 1
		}
		sizes[i] = int(s)
		remaining /= float64(sizes[i])
	}
	// Rounding down every factor can undershoot the target badly; top up
	// greedily until the product is within 10% or every factor is at its
	// cap.
	product := func() float64 {
		p := 1.0
		for _, s := range sizes {
			p *= float64(s)
		}
		return p
	}
	for product() < 0.9*float64(target) {
		grew := false
		for i := range sizes {
			if float64(sizes[i]+1) <= maxCard(i) && product() < 0.9*float64(target) {
				sizes[i]++
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	_ = rng
	return sizes
}

// randomFactor generates `count` distinct random tuples over `width`
// attributes with the given domain size.
func randomFactor(rng *rand.Rand, width, count, domSize int) [][]int {
	seen := make(map[string]bool, count)
	var out [][]int
	key := make([]byte, width)
	for len(out) < count {
		row := make([]int, width)
		for i := range row {
			row[i] = rng.Intn(domSize)
			key[i] = byte(row[i])
		}
		k := string(key)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, row)
	}
	return out
}

// emitProduct inserts the Cartesian product of the factors into t.
func emitProduct(t *relation.Table, groups [][]int, factors [][][]int, attrs int) {
	row := make([]int32, attrs)
	var rec func(gi int)
	rec = func(gi int) {
		if gi == len(groups) {
			t.InsertCodes(row)
			return
		}
		for _, tuple := range factors[gi] {
			for j, attr := range groups[gi] {
				// Value codes equal value indices because the dictionaries
				// were interned in order.
				row[attr] = int32(tuple[j])
			}
			rec(gi + 1)
		}
	}
	rec(0)
}
