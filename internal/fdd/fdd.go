// Package fdd layers finite-domain variables over the boolean BDD kernel.
//
// A finite-domain variable x with |dom(x)| = d is encoded as a block of
// ⌈log₂ d⌉ boolean variables holding the binary representation of x's value
// (the paper's "finite domain block", §2.1). The package provides the
// relational encodings the paper builds on: value equality (x = a), block
// equality (x = y), membership in a value set, block quantification, block
// renaming, and the bulk construction of a relation's characteristic
// function from its tuples.
package fdd

import (
	"fmt"
	"sort"

	"repro/internal/bdd"
)

// Space allocates finite-domain blocks inside a shared kernel. Blocks are
// appended in allocation order, so the caller chooses the BDD variable
// ordering by choosing the order in which it creates domains.
type Space struct {
	k       *bdd.Kernel
	domains []*Domain
}

// NewSpace creates an empty Space over k.
func NewSpace(k *bdd.Kernel) *Space {
	return &Space{k: k}
}

// Kernel returns the underlying boolean kernel.
func (s *Space) Kernel() *bdd.Kernel { return s.k }

// Domains returns the domains allocated so far, in allocation order.
func (s *Space) Domains() []*Domain { return s.domains }

// Domain is one finite-domain variable: a named block of boolean variables.
type Domain struct {
	space *Space
	name  string
	size  int
	vars  []int // kernel variables, most significant bit first
}

// Bits returns the number of boolean variables in the block.
func (d *Domain) Bits() int { return len(d.vars) }

// Size returns the domain cardinality.
func (d *Domain) Size() int { return d.size }

// Name returns the name given at allocation.
func (d *Domain) Name() string { return d.name }

// Vars returns the kernel variables of the block, most significant first.
// The returned slice must not be modified.
func (d *Domain) Vars() []int { return d.vars }

func bitsFor(size int) int {
	if size <= 1 {
		return 1
	}
	b := 0
	for 1<<b < size {
		b++
	}
	return b
}

// NewDomain allocates a block of ⌈log₂ size⌉ fresh boolean variables at the
// bottom of the variable order, most significant bit on top. A kernel's
// variable is its level, so the order blocks are allocated in is the order
// the index keeps.
func (s *Space) NewDomain(name string, size int) *Domain {
	if size < 1 {
		panic(fmt.Sprintf("fdd: domain %q has size %d", name, size))
	}
	bits := bitsFor(size)
	base := s.k.AddVars(bits)
	vars := make([]int, bits)
	for i := range vars {
		vars[i] = base + i
	}
	d := &Domain{space: s, name: name, size: size, vars: vars}
	s.domains = append(s.domains, d)
	return d
}

// AdoptDomain registers a block over boolean variables that already exist
// in the kernel instead of allocating fresh ones. Replication uses it to
// reproduce a source space's exact variable layout inside a replica kernel
// (after raising the kernel's variable count with AddVars): bit positions
// determine the BDD semantics of every encoded relation, so a replica must
// adopt the source's blocks, never re-allocate its own. vars is most
// significant bit first and must have exactly the width size requires.
func (s *Space) AdoptDomain(name string, size int, vars []int) *Domain {
	if size < 1 {
		panic(fmt.Sprintf("fdd: domain %q has size %d", name, size))
	}
	if len(vars) != bitsFor(size) {
		panic(fmt.Sprintf("fdd: domain %q needs %d bits, got %d", name, bitsFor(size), len(vars)))
	}
	for _, v := range vars {
		if v < 0 || v >= s.k.NumVars() {
			panic(fmt.Sprintf("fdd: domain %q adopts variable %d outside kernel range [0,%d)", name, v, s.k.NumVars()))
		}
	}
	d := &Domain{space: s, name: name, size: size, vars: append([]int(nil), vars...)}
	s.domains = append(s.domains, d)
	return d
}

// NewInterleavedDomains allocates several equal-width blocks with their bits
// interleaved: bit j of every block is adjacent in the variable order. An
// interleaved layout keeps the block-equality BDD linear in the bit width,
// whereas with consecutive blocks it is exponential — the asymmetry behind
// the paper's equi-join rename rule (§4.2).
func (s *Space) NewInterleavedDomains(names []string, size int) []*Domain {
	if len(names) == 0 {
		return nil
	}
	bits := bitsFor(size)
	base := s.k.AddVars(bits * len(names))
	out := make([]*Domain, len(names))
	for i, name := range names {
		vars := make([]int, bits)
		for j := range vars {
			vars[j] = base + j*len(names) + i
		}
		d := &Domain{space: s, name: name, size: size, vars: vars}
		s.domains = append(s.domains, d)
		out[i] = d
	}
	return out
}

// Lits returns the literal encoding of d = v, most significant bit first.
func (d *Domain) Lits(v int) []bdd.Literal {
	if v < 0 || v >= 1<<len(d.vars) {
		panic(fmt.Sprintf("fdd: value %d out of range for domain %q (%d bits)", v, d.name, len(d.vars)))
	}
	lits := make([]bdd.Literal, len(d.vars))
	for i, x := range d.vars {
		bit := v >> (len(d.vars) - 1 - i) & 1
		lits[i] = bdd.Literal{Var: x, Value: bit == 1}
	}
	return lits
}

// EqConst returns the BDD of the predicate d = v.
func (d *Domain) EqConst(v int) bdd.Ref {
	return d.space.k.Minterm(d.Lits(v))
}

// Among returns the BDD of the predicate d ∈ values.
func (d *Domain) Among(values []int) bdd.Ref {
	k := d.space.k
	sorted := append([]int(nil), values...)
	sort.Ints(sorted)
	// Recursive balanced OR keeps intermediate BDDs small and shares
	// common prefixes.
	var build func(lo, hi int) bdd.Ref
	build = func(lo, hi int) bdd.Ref {
		switch hi - lo {
		case 0:
			return bdd.False
		case 1:
			return d.EqConst(sorted[lo])
		}
		mid := (lo + hi) / 2
		return k.Or(build(lo, mid), build(mid, hi))
	}
	return build(0, len(sorted))
}

// LessConst returns the BDD of the predicate d < c, a linear-size
// comparator over the block bits.
func (d *Domain) LessConst(c int) bdd.Ref {
	k := d.space.k
	if c <= 0 {
		return bdd.False
	}
	if c >= 1<<len(d.vars) {
		return bdd.True
	}
	// Build bottom-up from the least significant bit. acc is "the remaining
	// suffix of v is < the remaining suffix of c"; the empty suffix is not
	// less (equal).
	acc := bdd.False
	for i := len(d.vars) - 1; i >= 0; i-- {
		bit := c >> (len(d.vars) - 1 - i) & 1
		if bit == 1 {
			// v_i = 0 → strictly less regardless of the suffix.
			acc = k.MakeNode(uint32(d.vars[i]), bdd.True, acc)
		} else {
			// v_i = 1 → strictly greater regardless of the suffix.
			acc = k.MakeNode(uint32(d.vars[i]), acc, bdd.False)
		}
		if acc == bdd.Invalid {
			return bdd.Invalid
		}
	}
	return acc
}

// InDomain returns the BDD accepting exactly the bit patterns that encode a
// value of the domain (d < Size()). Quantifiers over finite-domain blocks
// must be relativized with it: blocks have 2^bits slots, and the slots past
// Size() encode no value.
func (d *Domain) InDomain() bdd.Ref {
	return d.LessConst(d.size)
}

// Cube returns the quantification cube covering every bit of the block.
func (d *Domain) Cube() bdd.Ref {
	return d.space.k.Cube(d.vars...)
}

// CubeOf returns one cube covering all bits of all the given domains.
func CubeOf(doms ...*Domain) bdd.Ref {
	if len(doms) == 0 {
		panic("fdd: CubeOf needs at least one domain")
	}
	k := doms[0].space.k
	var vars []int
	for _, d := range doms {
		vars = append(vars, d.vars...)
	}
	return k.Cube(vars...)
}

// Exists existentially quantifies all bits of the given domains out of f.
func Exists(f bdd.Ref, doms ...*Domain) bdd.Ref {
	if len(doms) == 0 {
		return f
	}
	k := doms[0].space.k
	return k.Exists(f, CubeOf(doms...))
}

// Forall universally quantifies all bits of the given domains out of f.
func Forall(f bdd.Ref, doms ...*Domain) bdd.Ref {
	if len(doms) == 0 {
		return f
	}
	k := doms[0].space.k
	return k.Forall(f, CubeOf(doms...))
}

// EqVar returns the BDD of the predicate d = e, bit-wise equality of two
// blocks of the same width. With consecutive (non-interleaved) blocks this
// BDD has Θ(2^bits) nodes — the cost the rename rewrite avoids.
func EqVar(d, e *Domain) bdd.Ref {
	if len(d.vars) != len(e.vars) {
		panic(fmt.Sprintf("fdd: EqVar on blocks of different widths: %q has %d bits, %q has %d",
			d.name, len(d.vars), e.name, len(e.vars)))
	}
	k := d.space.k
	acc := bdd.True
	for i := len(d.vars) - 1; i >= 0; i-- {
		bit := k.Biimp(k.Var(d.vars[i]), k.Var(e.vars[i]))
		acc = k.And(acc, bit)
	}
	return acc
}

// ReplaceMap builds a kernel substitution renaming each from[i] block to the
// to[i] block. Blocks must have matching widths; the blocks may sit in any
// order (see Kernel.NewReplaceMap). It renames a relation when every target
// block it shares with the relation's support is itself renamed.
func ReplaceMap(from, to []*Domain) (bdd.ReplaceMap, error) {
	if len(from) != len(to) {
		return bdd.ReplaceMap{}, fmt.Errorf("fdd: ReplaceMap with %d sources and %d targets", len(from), len(to))
	}
	if len(from) == 0 {
		return bdd.ReplaceMap{}, fmt.Errorf("fdd: empty ReplaceMap")
	}
	k := from[0].space.k
	var pairs [][2]int
	for i := range from {
		if len(from[i].vars) != len(to[i].vars) {
			return bdd.ReplaceMap{}, fmt.Errorf("fdd: block width mismatch renaming %q (%d bits) to %q (%d bits)",
				from[i].name, len(from[i].vars), to[i].name, len(to[i].vars))
		}
		for j := range from[i].vars {
			pairs = append(pairs, [2]int{from[i].vars[j], to[i].vars[j]})
		}
	}
	return k.NewReplaceMap(pairs)
}

// Tuple encodes vals[i] as the value of doms[i] and returns the literals of
// the combined minterm.
func Tuple(doms []*Domain, vals []int) []bdd.Literal {
	if len(doms) != len(vals) {
		panic("fdd: Tuple length mismatch")
	}
	var lits []bdd.Literal
	for i, d := range doms {
		lits = append(lits, d.Lits(vals[i])...)
	}
	return lits
}

// Relation builds the characteristic function of the given rows over the
// blocks doms in one bottom-up pass: rows are encoded as bit strings in
// variable order, sorted, and the BDD is built by prefix splitting. The
// construction performs O(total bits) makeNode calls, far cheaper than
// OR-ing per-tuple minterms. The index layer builds its indices with it,
// and each update batch's tuples in each direction (index.Index.Apply).
func Relation(doms []*Domain, rows [][]int) (bdd.Ref, error) {
	if len(doms) == 0 {
		panic("fdd: Relation with no domains")
	}
	k := doms[0].space.k
	if len(rows) == 0 {
		return bdd.False, nil
	}
	// Columns of the bit matrix, in ascending variable order: the bottom-up
	// build needs them in level order.
	type bitSrc struct {
		variable int
		dom      int
		shift    uint // value >> shift & 1
	}
	var cols []bitSrc
	for di, d := range doms {
		for bi, v := range d.vars {
			cols = append(cols, bitSrc{variable: v, dom: di, shift: uint(len(d.vars) - 1 - bi)})
		}
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i].variable < cols[j].variable })
	nbits := len(cols)
	enc := make([][]byte, len(rows))
	for r, row := range rows {
		if len(row) != len(doms) {
			return bdd.Invalid, fmt.Errorf("fdd: row %d has %d values, want %d", r, len(row), len(doms))
		}
		bits := make([]byte, nbits)
		for c, src := range cols {
			v := row[src.dom]
			if v < 0 || v >= 1<<len(doms[src.dom].vars) {
				return bdd.Invalid, fmt.Errorf("fdd: row %d value %d out of range for domain %q", r, v, doms[src.dom].name)
			}
			bits[c] = byte(v >> src.shift & 1)
		}
		enc[r] = bits
	}
	sort.Slice(enc, func(i, j int) bool {
		a, b := enc[i], enc[j]
		for c := 0; c < nbits; c++ {
			if a[c] != b[c] {
				return a[c] < b[c]
			}
		}
		return false
	})
	var build func(lo, hi, bit int) bdd.Ref
	build = func(lo, hi, bit int) bdd.Ref {
		if lo == hi {
			return bdd.False
		}
		if bit == nbits {
			return bdd.True
		}
		// enc[lo:hi] is sorted, so rows with bit 0 precede rows with bit 1.
		split := lo + sort.Search(hi-lo, func(i int) bool { return enc[lo+i][bit] == 1 })
		low := build(lo, split, bit+1)
		if low == bdd.Invalid {
			return bdd.Invalid
		}
		high := build(split, hi, bit+1)
		if high == bdd.Invalid {
			return bdd.Invalid
		}
		return k.MakeNode(uint32(cols[bit].variable), low, high)
	}
	f := build(0, len(enc), 0)
	if f == bdd.Invalid {
		return bdd.Invalid, k.Err()
	}
	return f, nil
}

// Value decodes the value of domain d from a complete boolean assignment.
func (d *Domain) Value(assignment []bool) int {
	v := 0
	for _, x := range d.vars {
		v <<= 1
		if assignment[x] {
			v |= 1
		}
	}
	return v
}
