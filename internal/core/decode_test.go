package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bdd"
	"repro/internal/fdd"
	"repro/internal/relation"
)

// decode_test.go pins decodeWitnesses, which enumerates violating bindings
// off the violation BDD with one reusable slice of path bits, to the
// enumeration it replaced: the same witnesses in the same order.

// referenceDecode is the enumeration decodeWitnesses replaced, kept as the
// reference: a map of fixed bits per path and closures per path and block.
func referenceDecode(k *bdd.Kernel, viol bdd.Ref, blocks []*fdd.Domain, valueDoms []*relation.Domain, varNames []string, limit int) []Witness {
	var witnesses []Witness
	sizes := slotLimits(blocks, valueDoms)
	k.AllSat(viol, func(path []bdd.Literal) bool {
		fixed := make(map[int]bool, len(path))
		for _, l := range path {
			fixed[l.Var] = l.Value
		}
		vals := make([]int, len(blocks))
		var expand func(bi int) bool
		expand = func(bi int) bool {
			if bi == len(blocks) {
				w := Witness{Vars: varNames, Values: make([]string, len(blocks))}
				for i, d := range valueDoms {
					if d != nil {
						w.Values[i] = d.Value(int32(vals[i]))
					} else {
						w.Values[i] = fmt.Sprintf("#%d", vals[i])
					}
				}
				witnesses = append(witnesses, w)
				return len(witnesses) < limit
			}
			b := blocks[bi]
			base := 0
			var freeWeights []int
			for j, bit := range b.Vars() {
				weight := b.Bits() - 1 - j
				if val, ok := fixed[bit]; ok {
					if val {
						base |= 1 << weight
					}
				} else {
					freeWeights = append(freeWeights, weight)
				}
			}
			var enum func(v int, free []int) bool
			enum = func(v int, free []int) bool {
				if len(free) == 0 {
					if v >= sizes[bi] {
						return true
					}
					vals[bi] = v
					return expand(bi + 1)
				}
				if !enum(v, free[1:]) {
					return false
				}
				return enum(v|1<<free[0], free[1:])
			}
			return enum(base, freeWeights)
		}
		return expand(0)
	})
	return witnesses
}

// decodeFixture holds blocks of the given sizes with value domains of the
// given sizes, zero for none.
type decodeFixture struct {
	k         *bdd.Kernel
	blocks    []*fdd.Domain
	valueDoms []*relation.Domain
	varNames  []string
}

func newDecodeFixture(sizes [][2]int) *decodeFixture {
	k := bdd.New(bdd.Config{})
	space := fdd.NewSpace(k)
	cat := relation.NewCatalog()
	fx := &decodeFixture{k: k}
	for i, size := range sizes {
		fx.blocks = append(fx.blocks, space.NewDomain(fmt.Sprintf("b%d", i), size[0]))
		var d *relation.Domain
		if size[1] > 0 {
			d = cat.Domain(fmt.Sprintf("d%d", i))
			for v := 0; v < size[1]; v++ {
				d.Intern(fmt.Sprintf("v%d_%d", i, v))
			}
		}
		fx.valueDoms = append(fx.valueDoms, d)
		fx.varNames = append(fx.varNames, fmt.Sprintf("x%d", i))
	}
	return fx
}

// random returns a disjunction of cubes over random subsets of the blocks'
// bits: every bit a cube leaves out is a don't-care on its paths.
func (fx *decodeFixture) random(rng *rand.Rand, cubes int) bdd.Ref {
	k := fx.k
	f := bdd.False
	for c := 0; c < cubes; c++ {
		cube := bdd.True
		for v := 0; v < k.NumVars(); v++ {
			switch rng.Intn(3) {
			case 0:
				cube = k.And(cube, k.Var(v))
			case 1:
				cube = k.And(cube, k.NVar(v))
			}
		}
		f = k.Or(f, cube)
	}
	return f
}

func TestDecodeWitnessesMatchesReference(t *testing.T) {
	// Value domains smaller than their block leave slots past the end, which
	// are skipped; one larger than its block (values interned after the
	// block was sized) reaches into its spare slots; a block without one
	// renders "#n" up to its own size.
	fx := newDecodeFixture([][2]int{{5, 5}, {3, 2}, {3, 4}, {8, 6}, {6, 0}})
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		f := fx.random(rng, 1+rng.Intn(6))
		for _, limit := range []int{1, 7, 1 << 30} {
			want := referenceDecode(fx.k, f, fx.blocks, fx.valueDoms, fx.varNames, limit)
			got := decodeWitnesses(fx.k, f, fx.blocks, fx.valueDoms, fx.varNames, limit)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, limit %d: decoded\n%v\nwant\n%v", trial, limit, got, want)
			}
		}
	}
}

// TestDecodeWitnessesAllocatesOnlyWitnesses: a path costs no allocation; a
// witness costs its Values slice, plus the amortized growth of the result.
func TestDecodeWitnessesAllocatesOnlyWitnesses(t *testing.T) {
	fx := newDecodeFixture([][2]int{{5, 5}, {3, 3}, {8, 8}, {6, 6}, {7, 7}})
	f := fx.random(rand.New(rand.NewSource(9)), 150)
	n := len(decodeWitnesses(fx.k, f, fx.blocks, fx.valueDoms, fx.varNames, 1<<30))
	if n < 1000 {
		t.Fatalf("the fixture decodes to %d witnesses, want a thousand or more", n)
	}
	allocs := testing.AllocsPerRun(5, func() {
		decodeWitnesses(fx.k, f, fx.blocks, fx.valueDoms, fx.varNames, 1<<30)
	})
	t.Logf("%d witnesses, %.0f allocations", n, allocs)
	if perWitness := allocs / float64(n); perWitness > 1.1 {
		t.Fatalf("%.0f allocations for %d witnesses: %.2f per witness, want at most 1.1", allocs, n, perWitness)
	}
}
