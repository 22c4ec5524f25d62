package bdd_test

import (
	"math/rand"
	"testing"

	"repro/internal/bdd"
)

// gc_test.go checks the collector: a model of 64-bit truth tables shadows a
// register file of pinned BDDs through random operation sequences with
// explicit collections and cache flushes mixed in, renames by any
// permutation of the variables among them, and after every GC the
// surviving operation-cache entries are recomputed in a fresh kernel. The
// kernels run under DebugChecks, so the safe point after every operation
// collects too.

const (
	opsVars = 6 // truth tables fit a uint64
	opsRegs = 8
)

// opsMachine interprets a byte string as kernel operations over pinned
// registers, beside their truth tables.
type opsMachine struct {
	t     testing.TB
	k     *bdd.Kernel
	shift bdd.ReplaceMap // variables 0..2 → 3..5
	perms map[int]bdd.ReplaceMap
	reg   [opsRegs]bdd.Ref
	model [opsRegs]uint64
	kept  int // cache entries that survived a GC, summed
}

func newOpsMachine(t testing.TB) *opsMachine {
	k := bdd.New(bdd.Config{Vars: opsVars, DebugChecks: true})
	shift, err := k.NewReplaceMap([][2]int{{0, 3}, {1, 4}, {2, 5}})
	if err != nil {
		t.Fatal(err)
	}
	return &opsMachine{t: t, k: k, shift: shift, perms: make(map[int]bdd.ReplaceMap)}
}

// quantified returns the truth table of Q x. f for the variable set vars.
func quantified(f uint64, vars []int, forall bool) uint64 {
	for _, x := range vars {
		var out uint64
		for m := 0; m < 1<<opsVars; m++ {
			lo, hi := f>>(m&^(1<<x))&1, f>>(m|1<<x)&1
			if (forall && lo&hi == 1) || (!forall && lo|hi == 1) {
				out |= 1 << m
			}
		}
		f = out
	}
	return f
}

func (m *opsMachine) set(i int, f bdd.Ref, table uint64) {
	if f == bdd.Invalid {
		m.t.Fatalf("operation returned Invalid: %v", m.k.Err())
	}
	m.k.Protect(f)
	m.k.Unprotect(m.reg[i])
	m.reg[i], m.model[i] = f, table
}

// permute returns the interned map of the n-th permutation of the variables
// (n mod 6!, in Lehmer code) and the permutation itself.
func (m *opsMachine) permute(n int) (bdd.ReplaceMap, [opsVars]int) {
	n %= 720
	var sigma [opsVars]int
	free := []int{0, 1, 2, 3, 4, 5}
	code := n
	for u := range sigma {
		j := code % len(free)
		code /= len(free)
		sigma[u] = free[j]
		free = append(free[:j], free[j+1:]...)
	}
	rm, ok := m.perms[n]
	if !ok {
		pairs := make([][2]int, opsVars)
		for u, v := range sigma {
			pairs[u] = [2]int{u, v}
		}
		var err error
		if rm, err = m.k.NewReplaceMap(pairs); err != nil {
			m.t.Fatal(err)
		}
		m.perms[n] = rm
	}
	return rm, sigma
}

// step executes one operation: code picks it, a, b and c its registers or
// variables.
func (m *opsMachine) step(code, a, b, c byte) {
	k := m.k
	d, x, y := int(a)%opsRegs, int(b)%opsRegs, int(c)%opsRegs
	v := int(b) % opsVars
	cubeVars := []int{v, int(c) % opsVars}
	switch code % 15 {
	case 0:
		var table uint64
		for i := 0; i < 1<<opsVars; i++ {
			table |= uint64(i>>v&1) << i
		}
		m.set(d, k.Var(v), table)
	case 1:
		m.set(d, k.Not(m.reg[x]), ^m.model[x])
	case 2:
		m.set(d, k.And(m.reg[x], m.reg[y]), m.model[x]&m.model[y])
	case 3:
		m.set(d, k.Or(m.reg[x], m.reg[y]), m.model[x]|m.model[y])
	case 4:
		m.set(d, k.Xor(m.reg[x], m.reg[y]), m.model[x]^m.model[y])
	case 5:
		m.set(d, k.Diff(m.reg[x], m.reg[y]), m.model[x]&^m.model[y])
	case 6:
		m.set(d, k.Imp(m.reg[x], m.reg[y]), ^m.model[x]|m.model[y])
	case 7:
		m.set(d, k.Exists(m.reg[x], k.Cube(cubeVars...)), quantified(m.model[x], cubeVars, false))
	case 8:
		m.set(d, k.Forall(m.reg[x], k.Cube(cubeVars...)), quantified(m.model[x], cubeVars, true))
	case 9:
		cube := k.Cube(cubeVars...)
		m.set(d, k.AppEx(m.reg[x], m.reg[d], bdd.OpAnd, cube), quantified(m.model[x]&m.model[d], cubeVars, false))
	case 10:
		cube := k.Cube(cubeVars...)
		m.set(d, k.AppAll(m.reg[x], m.reg[d], bdd.OpOr, cube), quantified(m.model[x]|m.model[d], cubeVars, true))
	case 11:
		// Project onto variables 0..2, then rename them to 3..5.
		low := quantified(m.model[x], []int{3, 4, 5}, false)
		var table uint64
		for i := 0; i < 1<<opsVars; i++ {
			table |= (low >> (i >> 3) & 1) << i
		}
		m.set(d, k.Replace(k.Exists(m.reg[x], k.Cube(3, 4, 5)), m.shift), table)
	case 12:
		before := k.Size()
		k.GC()
		if k.Size() > before {
			m.t.Fatalf("GC grew the table: %d -> %d live nodes", before, k.Size())
		}
		n, err := k.CheckMemo()
		if err != nil {
			m.t.Fatalf("after GC: %v", err)
		}
		m.kept += n
	case 13:
		k.ClearCaches()
	case 14:
		// Rename every variable by a permutation, which moves nodes out
		// of order.
		src := int(a>>3) % opsRegs
		rm, sigma := m.permute(int(b)<<8 | int(c))
		var table uint64
		for i := 0; i < 1<<opsVars; i++ {
			pre := 0
			for u, v := range sigma {
				pre |= (i >> v & 1) << u
			}
			table |= (m.model[src] >> pre & 1) << i
		}
		m.set(d, k.Replace(m.reg[src], rm), table)
	}
	for i, f := range m.reg {
		asn := make([]bool, opsVars)
		for a := 0; a < 1<<opsVars; a++ {
			for j := range asn {
				asn[j] = a>>j&1 == 1
			}
			if k.Eval(f, asn) != (m.model[i]>>a&1 == 1) {
				m.t.Fatalf("register %d disagrees with its truth table at assignment %06b after op %d", i, a, code%15)
			}
		}
	}
	k.SafePoint()
}

func (m *opsMachine) run(data []byte) {
	for ; len(data) >= 4; data = data[4:] {
		m.step(data[0], data[1], data[2], data[3])
	}
}

func TestGCRandomSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	kept := 0
	for seq := 0; seq < 60; seq++ {
		data := make([]byte, 4*(50+rng.Intn(200)))
		rng.Read(data)
		m := newOpsMachine(t)
		m.run(data)
		kept += m.kept
	}
	if kept == 0 {
		t.Fatal("no operation-cache entry ever survived a GC: the property was checked on nothing")
	}
}

// A live pair of operands keeps its memoised result alive and answers from
// the cache afterwards; an entry with a dead operand is gone.
func TestGCIsAnEphemeronTable(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 8, DebugChecks: true})
	build := func() (f, g bdd.Ref) {
		f = k.Or(k.And(k.Var(0), k.Var(3)), k.And(k.Var(1), k.Var(5)))
		g = k.Or(k.Xor(k.Var(2), k.Var(4)), k.And(k.Var(6), k.NVar(7)))
		return f, g
	}
	f, g := build()
	k.Protect(f) // the pin lives until the test kernel is dropped
	k.Protect(g)
	r := k.And(f, g)               // unpinned: only the cache knows it
	q := k.Exists(r, k.Cube(3, 4)) // an entry whose operand only an entry keeps alive
	k.GC()
	if _, err := k.CheckMemo(); err != nil {
		t.Fatal(err)
	}
	before := k.Stats()
	if k.And(f, g) != r || k.Exists(r, k.Cube(3, 4)) != q {
		t.Fatal("results moved across GC")
	}
	if d := k.Stats().DeltaSince(before); d.NodesAllocated != 0 || d.Ops != 2 || d.CacheHits != 2 {
		t.Fatalf("recomputing two memoised results cost %+v, want two cache hits and no nodes", d)
	}

	k.Unprotect(g)
	live := k.Size()
	k.GC()
	if k.Size() >= live {
		t.Fatalf("dropping g freed nothing: %d -> %d live nodes", live, k.Size())
	}
	if _, err := k.CheckMemo(); err != nil {
		t.Fatal(err)
	}
	_, g = build()
	before = k.Stats()
	k.And(f, g)
	if d := k.Stats().DeltaSince(before); d.NodesAllocated == 0 {
		t.Fatalf("f ∧ g was answered from the cache after g died: %+v", d)
	}
}

// CheckPins compares the pins with the owners' Refs as multisets.
func TestCheckPins(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 4})
	f := k.Protect(k.And(k.Var(0), k.Var(1)))
	g := k.Protect(k.Or(k.Var(2), k.Var(3)))
	k.Protect(g)
	for _, tc := range []struct {
		name    string
		owned   []bdd.Ref
		wantErr bool
	}{
		{"balanced", []bdd.Ref{g, f, g}, false},
		{"leak: a pin nothing owns", []bdd.Ref{g, g}, true},
		{"missing pin: an owned Ref nothing pins", []bdd.Ref{f, g, g, k.Var(3)}, true},
		{"owned twice, pinned once", []bdd.Ref{f, f, g, g}, true},
		{"terminals and Invalid are ignored", []bdd.Ref{bdd.True, f, bdd.False, g, g, bdd.Invalid}, false},
	} {
		if err := k.CheckPins(tc.owned); (err != nil) != tc.wantErr {
			t.Errorf("%s: CheckPins = %v, want an error: %v", tc.name, err, tc.wantErr)
		}
	}
	k.Unprotect(g)
	k.Unprotect(g)
	k.GC() // g's nodes are freed: owning g is now owning a free slot
	if err := k.CheckPins([]bdd.Ref{f, g}); err == nil {
		t.Error("CheckPins accepts an owned Ref the collector freed")
	}
}
