package bdd_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bdd"
)

// truthTable evaluates f on every assignment of the first nvars variables
// (variable i is bit i of the row index). Everything above nvars must be
// outside f's support.
func truthTable(k *bdd.Kernel, f bdd.Ref, nvars int) []bool {
	tt := make([]bool, 1<<nvars)
	val := make([]bool, k.NumVars())
	for m := range tt {
		for i := 0; i < nvars; i++ {
			val[i] = m&(1<<i) != 0
		}
		tt[m] = k.Eval(f, val)
	}
	return tt
}

// randomFormula builds a random BDD over vars 0..nvars-1, TempKeeping
// intermediates so GC during construction cannot eat them.
func randomFormula(k *bdd.Kernel, rng *rand.Rand, nvars, ops int) bdd.Ref {
	mark := k.TempMark()
	defer k.TempRelease(mark)
	f := k.TempKeep(k.Var(rng.Intn(nvars)))
	for i := 0; i < ops; i++ {
		g := k.Var(rng.Intn(nvars))
		if rng.Intn(2) == 0 {
			g = k.Not(g)
		}
		switch rng.Intn(4) {
		case 0:
			f = k.And(f, g)
		case 1:
			f = k.Or(f, g)
		case 2:
			f = k.Xor(f, g)
		default:
			f = k.Biimp(f, g)
		}
		f = k.TempKeep(f)
	}
	return f
}

func TestReorderPreservesSemanticsRandom(t *testing.T) {
	const nvars = 8
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := bdd.New(bdd.Config{Vars: nvars})
		f := k.Protect(randomFormula(k, rng, nvars, 30))
		g := k.Protect(randomFormula(k, rng, nvars, 30))
		ttF := truthTable(k, f, nvars)
		ttG := truthTable(k, g, nvars)
		stats := k.Reorder()
		if stats.After != k.Size() {
			t.Fatalf("seed %d: stats.After = %d, Size = %d", seed, stats.After, k.Size())
		}
		for m, want := range ttF {
			got := truthTable(k, f, nvars)[m]
			if got != want {
				t.Fatalf("seed %d: f differs at row %d after Reorder", seed, m)
			}
		}
		for m, want := range ttG {
			if truthTable(k, g, nvars)[m] != want {
				t.Fatalf("seed %d: g differs at row %d after Reorder", seed, m)
			}
		}
		if err := k.Err(); err != nil {
			t.Fatalf("seed %d: kernel error after Reorder: %v", seed, err)
		}
	}
}

func TestSetOrderExactAndReversible(t *testing.T) {
	const nvars = 6
	rng := rand.New(rand.NewSource(42))
	k := bdd.New(bdd.Config{Vars: nvars})
	f := k.Protect(randomFormula(k, rng, nvars, 25))
	before := truthTable(k, f, nvars)

	perm := []int{5, 2, 0, 4, 1, 3}
	if err := k.SetOrder(perm); err != nil {
		t.Fatalf("SetOrder: %v", err)
	}
	got := k.VarOrder()
	for l, v := range perm {
		if got[l] != v {
			t.Fatalf("VarOrder[%d] = %d, want %d", l, got[l], v)
		}
		if k.VarAtLevel(l) != v || k.LevelOfVar(v) != l {
			t.Fatalf("VarAtLevel/LevelOfVar inconsistent at level %d", l)
		}
	}
	after := truthTable(k, f, nvars)
	for m := range before {
		if before[m] != after[m] {
			t.Fatalf("semantics differ at row %d under permuted order", m)
		}
	}
	// And back to identity.
	if err := k.SetOrder([]int{0, 1, 2, 3, 4, 5}); err != nil {
		t.Fatalf("SetOrder back: %v", err)
	}
	back := truthTable(k, f, nvars)
	for m := range before {
		if before[m] != back[m] {
			t.Fatalf("semantics differ at row %d after round-trip", m)
		}
	}
}

func TestSetOrderRejectsBadPermutations(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 3})
	for _, bad := range [][]int{
		{0, 1},          // wrong length
		{0, 1, 1},       // duplicate
		{0, 1, 3},       // out of range
		{-1, 1, 2},      // negative
		{0, 1, 2, 3, 4}, // too long
	} {
		if err := k.SetOrder(bad); err == nil {
			t.Fatalf("SetOrder(%v) accepted", bad)
		}
	}
}

// The disjoint comparator AND_i (a_i ↔ b_i) is the classic order-sensitive
// function: with all a's above all b's it is exponential in the pair count,
// interleaved it is linear. Sifting must find a dramatically smaller order.
func TestReorderShrinksComparator(t *testing.T) {
	const n = 8 // pairs; a_i = var i, b_i = var n+i
	k := bdd.New(bdd.Config{Vars: 2 * n})
	mark := k.TempMark()
	f := k.TempKeep(bdd.True)
	for i := 0; i < n; i++ {
		f = k.TempKeep(k.And(f, k.Biimp(k.Var(i), k.Var(n+i))))
	}
	k.TempRelease(mark)
	k.Protect(f) // ownership: pin lives until the test kernel is dropped
	sizeBefore := k.NodeCount(f)
	stats := k.Reorder()
	sizeAfter := k.NodeCount(f)
	if sizeAfter*2 > sizeBefore {
		t.Fatalf("sifting only got %d -> %d nodes; want at least 2x reduction", sizeBefore, sizeAfter)
	}
	if stats.After >= stats.Before {
		t.Fatalf("live count did not drop: %+v", stats)
	}
	if stats.Swaps == 0 || stats.Blocks == 0 {
		t.Fatalf("no sifting recorded: %+v", stats)
	}
	// Still the same function.
	val := make([]bool, 2*n)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		eq := true
		for i := range val {
			val[i] = rng.Intn(2) == 0
		}
		for i := 0; i < n; i++ {
			if val[i] != val[n+i] {
				eq = false
			}
		}
		if k.Eval(f, val) != eq {
			t.Fatalf("comparator wrong after sift on %v", val)
		}
	}
}

// A Ref pinned across a Reorder must keep both its identity and its
// function, and the unique table must stay canonical: recomputing the same
// combination afterwards returns the very same Ref.
func TestReorderPreservesPinsAndCanonicity(t *testing.T) {
	const nvars = 8
	rng := rand.New(rand.NewSource(3))
	k := bdd.New(bdd.Config{Vars: nvars})
	f := k.Protect(randomFormula(k, rng, nvars, 20))
	g := k.Protect(randomFormula(k, rng, nvars, 20))
	conj := k.Protect(k.And(f, g))
	k.Reorder()
	if again := k.And(f, g); again != conj {
		t.Fatalf("And(f,g) = %d after reorder, want the pinned %d (canonicity broken)", again, conj)
	}
	if x := k.Xor(conj, k.And(f, g)); x != bdd.False {
		t.Fatalf("pinned conjunction no longer equals recomputed one")
	}
	k.Unprotect(conj)
	k.Unprotect(g)
	k.Unprotect(f)
}

func TestGroupSiftingKeepsBlocksContiguous(t *testing.T) {
	const nvars = 12
	k := bdd.New(bdd.Config{Vars: nvars})
	groups := [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11}}
	for _, g := range groups {
		k.Group(g...)
	}
	// A function that wants group 0 next to group 3 and group 1 next to
	// group 2: pairwise biimplications across the bits.
	mark := k.TempMark()
	f := k.TempKeep(bdd.True)
	for b := 0; b < 3; b++ {
		f = k.TempKeep(k.And(f, k.Biimp(k.Var(b), k.Var(9+b))))
		f = k.TempKeep(k.And(f, k.Biimp(k.Var(3+b), k.Var(6+b))))
	}
	k.TempRelease(mark)
	k.Protect(f)
	tt := make(map[int]bool)
	val := make([]bool, nvars)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		m := rng.Intn(1 << nvars)
		for i := range val {
			val[i] = m&(1<<i) != 0
		}
		tt[m] = k.Eval(f, val)
	}
	k.Reorder()
	for gi, g := range groups {
		minL, maxL := nvars, -1
		prev := -1
		for _, v := range g {
			l := k.LevelOfVar(v)
			if l <= prev {
				t.Fatalf("group %d: within-group order disturbed (var %d at level %d after level %d)", gi, v, l, prev)
			}
			prev = l
			if l < minL {
				minL = l
			}
			if l > maxL {
				maxL = l
			}
		}
		if maxL-minL != len(g)-1 {
			t.Fatalf("group %d: levels not contiguous (span %d..%d)", gi, minL, maxL)
		}
	}
	for m, want := range tt {
		for i := range val {
			val[i] = m&(1<<i) != 0
		}
		if k.Eval(f, val) != want {
			t.Fatalf("semantics differ at row %d after group sift", m)
		}
	}
}

func TestReorderReclaimsGarbageAndKeepsStampedSlots(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 6})
	pinned := k.Protect(k.And(k.Var(0), k.Var(1)))
	garbage := k.And(k.Var(2), k.And(k.Var(3), k.Var(4))) // unpinned
	if garbage == bdd.Invalid {
		t.Fatal("setup failed")
	}
	sizeWithGarbage := k.Size()
	k.Reorder()
	if k.Size() >= sizeWithGarbage {
		t.Fatalf("reorder did not reclaim garbage: %d -> %d", sizeWithGarbage, k.Size())
	}
	k.SetDebugChecks(true)
	defer func() {
		if recover() == nil {
			t.Fatal("using a reclaimed Ref after Reorder did not panic under DebugChecks")
		}
	}()
	k.And(garbage, pinned)
}

// Results memoised about pinned nodes survive GC, but not Reorder: it clears
// the caches before its opening collection, so Before counts what the pins
// need and the sift sees no node that only a cache entry keeps alive.
func TestReorderBeforeCountsThePinsAlone(t *testing.T) {
	const nvars = 8
	k := bdd.New(bdd.Config{Vars: nvars})
	rng := rand.New(rand.NewSource(3))
	f := k.Protect(randomFormula(k, rng, nvars, 30))
	defer k.Unprotect(f)
	g := k.Protect(randomFormula(k, rng, nvars, 30))
	defer k.Unprotect(g)
	k.ClearCaches()
	k.GC()
	pins := k.Size()
	if k.Xor(f, g) == bdd.Invalid || k.Exists(f, k.Cube(0, 1)) == bdd.Invalid {
		t.Fatal(k.Err())
	}
	k.GC()
	if k.Size() <= pins {
		t.Fatalf("GC kept no memoised result about the pins: %d live, the pins need %d", k.Size(), pins)
	}
	if st := k.Reorder(); st.Before != pins {
		t.Fatalf("Reorder counted %d live nodes before sifting, the pins need %d", st.Before, pins)
	}
}

func TestQuantAndCubeAfterReorder(t *testing.T) {
	const nvars = 6
	k := bdd.New(bdd.Config{Vars: nvars})
	rng := rand.New(rand.NewSource(9))
	f := k.Protect(randomFormula(k, rng, nvars, 25))
	cube := k.Protect(k.Cube(1, 3))
	ex := k.Protect(k.Exists(f, cube))
	ttEx := truthTable(k, ex, nvars)
	if err := k.SetOrder([]int{3, 5, 1, 0, 2, 4}); err != nil {
		t.Fatalf("SetOrder: %v", err)
	}
	// The pinned cube keeps meaning; a freshly built cube must equal it.
	if c2 := k.Cube(3, 1); c2 != cube {
		t.Fatalf("Cube(3,1) = %d after reorder, want pinned cube %d", c2, cube)
	}
	vars := k.CubeVars(cube)
	if len(vars) != 2 {
		t.Fatalf("CubeVars = %v", vars)
	}
	seen := map[int]bool{vars[0]: true, vars[1]: true}
	if !seen[1] || !seen[3] {
		t.Fatalf("CubeVars = %v, want {1,3}", vars)
	}
	if ex2 := k.Exists(f, cube); ex2 != ex {
		t.Fatalf("Exists changed identity after reorder")
	}
	after := truthTable(k, ex, nvars)
	for m := range ttEx {
		if ttEx[m] != after[m] {
			t.Fatalf("Exists semantics differ at row %d", m)
		}
	}
}

func TestSaveLoadCarriesVariableOrder(t *testing.T) {
	const nvars = 8
	rng := rand.New(rand.NewSource(5))
	k := bdd.New(bdd.Config{Vars: nvars})
	f := k.Protect(randomFormula(k, rng, nvars, 30))
	k.Reorder()
	tt := truthTable(k, f, nvars)
	order := k.VarOrder()

	data := save(t, k, f)

	// A pristine kernel adopts the saved order.
	k2 := bdd.New(bdd.Config{Vars: nvars})
	roots, err := load(k2, data)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	got := k2.VarOrder()
	for l := range order {
		if got[l] != order[l] {
			t.Fatalf("loaded order %v, want %v", got, order)
		}
	}
	tt2 := truthTable(k2, roots[0], nvars)
	for m := range tt {
		if tt[m] != tt2[m] {
			t.Fatalf("loaded BDD differs at row %d", m)
		}
	}

	// A pristine kernel with MORE variables also adopts it; the extra
	// variables keep their identity levels below the loaded ones.
	k3 := bdd.New(bdd.Config{Vars: nvars + 3})
	if _, err := load(k3, data); err != nil {
		t.Fatalf("Load into wider kernel: %v", err)
	}
	for v := nvars; v < nvars+3; v++ {
		if k3.LevelOfVar(v) != v {
			t.Fatalf("extra variable %d moved to level %d", v, k3.LevelOfVar(v))
		}
	}

	// A populated kernel on an incompatible order must refuse, not corrupt.
	if order[0] == 0 && order[1] == 1 && order[2] == 2 {
		t.Skip("sift happened to keep identity prefix; incompatibility case not reachable")
	}
	k4 := bdd.New(bdd.Config{Vars: nvars})
	k4.Protect(k4.Var(0)) // populated, identity order
	if _, err := load(k4, data); err == nil {
		t.Fatal("Load of reordered file into populated identity-order kernel succeeded")
	}
}

func TestImportCarriesVariableOrder(t *testing.T) {
	const nvars = 8
	rng := rand.New(rand.NewSource(6))
	k := bdd.New(bdd.Config{Vars: nvars})
	f := k.Protect(randomFormula(k, rng, nvars, 30))
	if err := k.SetOrder([]int{7, 6, 5, 4, 3, 2, 1, 0}); err != nil {
		t.Fatalf("SetOrder: %v", err)
	}
	tt := truthTable(k, f, nvars)

	dst := bdd.New(bdd.Config{Vars: nvars})
	out, err := transfer(k, dst, f)
	if err != nil {
		t.Fatalf("transfer: %v", err)
	}
	got := dst.VarOrder()
	for l := range got {
		if got[l] != nvars-1-l {
			t.Fatalf("destination order %v, want reversed", got)
		}
	}
	tt2 := truthTable(dst, out[0], nvars)
	for m := range tt {
		if tt[m] != tt2[m] {
			t.Fatalf("imported BDD differs at row %d", m)
		}
	}

	// A populated destination on an incompatible order must refuse.
	dst2 := bdd.New(bdd.Config{Vars: nvars})
	dst2.Protect(dst2.And(dst2.Var(0), dst2.Var(1))) // pins identity order in place
	chain := k.Protect(k.And(k.Var(0), k.And(k.Var(1), k.Var(2))))
	if _, err := transfer(k, dst2, chain); err == nil {
		t.Fatal("import between incompatible orders succeeded")
	}
}

// TestImportNarrowerPristineKernel: a source kernel keeps scratch
// variables above the copied structure (the production evaluator does this),
// the destination only allocates the copied variables. A pristine narrow
// destination must adopt the rank-compressed source order and reproduce the
// function; a variable the destination genuinely lacks must still error.
func TestImportNarrowerPristineKernel(t *testing.T) {
	const nvars, scratch = 6, 4
	rng := rand.New(rand.NewSource(16))
	k := bdd.New(bdd.Config{Vars: nvars + scratch})
	f := k.Protect(randomFormula(k, rng, nvars, 25)) // touches only 0..nvars-1
	k.Protect(k.And(k.Var(nvars), k.Var(nvars+1)))   // scratch structure too
	k.Reorder()
	tt := truthTable(k, f, nvars)

	dst := bdd.New(bdd.Config{Vars: nvars})
	out, err := transfer(k, dst, f)
	if err != nil {
		t.Fatalf("import into narrower pristine kernel: %v", err)
	}
	// The adopted order must rank the shared variables as the source does.
	srcRank := make([]int, 0, nvars)
	for _, v := range k.VarOrder() {
		if v < nvars {
			srcRank = append(srcRank, v)
		}
	}
	if got := dst.VarOrder(); !reflect.DeepEqual(got, srcRank) {
		t.Fatalf("destination order %v, want source ranks %v", got, srcRank)
	}
	tt2 := truthTable(dst, out[0], nvars)
	for m := range tt {
		if tt[m] != tt2[m] {
			t.Fatalf("imported BDD differs at row %d", m)
		}
	}

	// A root that really uses a scratch variable cannot fit the narrow kernel.
	g := k.Protect(k.Var(nvars + 2))
	if _, err := transfer(k, bdd.New(bdd.Config{Vars: nvars}), g); err == nil {
		t.Fatal("import of an out-of-range variable succeeded")
	}
}

func TestReplaceMapTracksReorder(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 4})
	m, err := k.NewReplaceMap([][2]int{{0, 2}, {1, 3}})
	if err != nil {
		t.Fatalf("NewReplaceMap: %v", err)
	}
	f := k.Protect(k.And(k.Var(0), k.Var(1)))
	want := k.Protect(k.And(k.Var(2), k.Var(3)))
	if got := k.Replace(f, m); got != want {
		t.Fatalf("Replace before reorder: got %d want %d", got, want)
	}
	// This order breaks the map's monotonicity: sources at levels 0 and 2
	// map to targets at levels 3 and 1.
	if err := k.SetOrder([]int{0, 3, 1, 2}); err != nil {
		t.Fatalf("SetOrder: %v", err)
	}
	if got := k.Replace(f, m); got != bdd.Invalid {
		t.Fatalf("Replace under incompatible order returned %d, want Invalid", got)
	}
	if !errors.Is(k.Err(), bdd.ErrOrder) {
		t.Fatalf("Err = %v, want ErrOrder", k.Err())
	}
	k.ClearErr()
	// Restoring a compatible order revalidates the interned map.
	if err := k.SetOrder([]int{0, 1, 2, 3}); err != nil {
		t.Fatalf("SetOrder back: %v", err)
	}
	if got := k.Replace(f, m); got != want {
		t.Fatalf("Replace after restoring order: got %d want %d", got, want)
	}
}

func TestReorderTrivialKernels(t *testing.T) {
	for _, vars := range []int{0, 1} {
		k := bdd.New(bdd.Config{Vars: vars})
		stats := k.Reorder()
		if stats.Swaps != 0 {
			t.Fatalf("vars=%d: unexpected swaps %d", vars, stats.Swaps)
		}
	}
	// Sticky error: Reorder must not run on a poisoned kernel.
	k := bdd.New(bdd.Config{Vars: 4, NodeBudget: 3})
	k.And(k.Var(0), k.Var(1))
	for k.Err() == nil {
		k.And(k.Var(2), k.Var(3))
		break
	}
	k.SetBudget(3)
	_ = k.And(k.Var(0), k.Var(2))
	if k.Err() != nil {
		before := k.Size()
		stats := k.Reorder()
		if stats.Swaps != 0 || k.Size() != before {
			t.Fatal("Reorder ran on a kernel with a sticky error")
		}
	}
}

func TestReorderUnderDebugChecks(t *testing.T) {
	const nvars = 8
	rng := rand.New(rand.NewSource(13))
	k := bdd.New(bdd.Config{Vars: nvars, DebugChecks: true})
	f := k.Protect(randomFormula(k, rng, nvars, 40))
	tt := truthTable(k, f, nvars)
	k.Reorder()
	k.Reorder() // idempotent second run
	after := truthTable(k, f, nvars)
	for m := range tt {
		if tt[m] != after[m] {
			t.Fatalf("semantics differ at row %d", m)
		}
	}
}

func TestReorderStatsAccumulate(t *testing.T) {
	const n = 6
	k := bdd.New(bdd.Config{Vars: 2 * n})
	mark := k.TempMark()
	f := k.TempKeep(bdd.True)
	for i := 0; i < n; i++ {
		f = k.TempKeep(k.And(f, k.Biimp(k.Var(i), k.Var(n+i))))
	}
	k.TempRelease(mark)
	k.Protect(f) // ownership: pin lives until the test kernel is dropped
	st := k.Reorder()
	ks := k.Stats()
	if ks.Reorders != 1 {
		t.Fatalf("Stats.Reorders = %d, want 1", ks.Reorders)
	}
	if want := uint64(st.Before - st.After); ks.ReorderSaved != want {
		t.Fatalf("Stats.ReorderSaved = %d, want %d", ks.ReorderSaved, want)
	}
	if k.ReorderRuns() != 1 {
		t.Fatalf("ReorderRuns = %d", k.ReorderRuns())
	}
}

// TestReorderGrowthBoundCutsWalks: on an interleaved comparator every move
// of a variable away from its partner grows the diagram, and an unbounded
// walk that carries x0 to the bottom of the order doubles every level below
// its partner. The growth bound stops each walk early, so the node table
// never holds much more than the comparator itself.
func TestReorderGrowthBoundCutsWalks(t *testing.T) {
	const n = 10
	src := bdd.New(bdd.Config{Vars: 2 * n})
	f := bdd.True
	for i := 0; i < n; i++ {
		f = src.And(f, src.Biimp(src.Var(2*i), src.Var(2*i+1)))
	}
	// A fresh copy holds the comparator and nothing else, so its peak
	// measures the sift alone.
	k := bdd.New(bdd.Config{Vars: 2 * n})
	copied, err := transfer(src, k, f)
	if err != nil {
		t.Fatal(err)
	}
	g := k.Protect(copied[0]) // ownership: pin lives until the test kernel is dropped
	tt := truthTable(k, g, 2*n)
	st := k.Reorder()
	if st.Blocks != 2*n {
		t.Fatalf("sifted %d blocks, want %d", st.Blocks, 2*n)
	}
	if peak := k.Stats().Peak; float64(peak) > 1.5*float64(st.Before) {
		t.Fatalf("sifting a %d-node comparator peaked at %d nodes: the growth bound did not stop a walk", st.Before, peak)
	}
	after := truthTable(k, g, 2*n)
	for m := range tt {
		if tt[m] != after[m] {
			t.Fatalf("semantics differ at row %d", m)
		}
	}
}
