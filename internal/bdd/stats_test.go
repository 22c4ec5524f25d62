package bdd_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bdd"
)

func TestStatsSnapshot(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 8})
	s0 := k.Stats()
	if s0.Live != 2 || s0.Peak != 2 {
		t.Fatalf("fresh kernel: Live=%d Peak=%d, want 2/2", s0.Live, s0.Peak)
	}
	if s0.Vars != 8 || s0.Budget != 0 {
		t.Fatalf("fresh kernel: Vars=%d Budget=%d, want 8/0", s0.Vars, s0.Budget)
	}
	f := bdd.True
	for i := 0; i < 8; i++ {
		f = k.And(f, k.Var(i))
	}
	s1 := k.Stats()
	if s1.Live <= s0.Live || s1.Peak < s1.Live || s1.Ops == 0 {
		t.Fatalf("after work: %+v (want growth and op counts)", s1)
	}
	// GC drops unreferenced nodes but never lowers the peak.
	k.GC()
	s2 := k.Stats()
	if s2.GCRuns != s1.GCRuns+1 {
		t.Fatalf("GCRuns=%d, want %d", s2.GCRuns, s1.GCRuns+1)
	}
	if s2.Peak < s1.Peak {
		t.Fatalf("Peak shrank across GC: %d -> %d", s1.Peak, s2.Peak)
	}
	if s2.Live >= s1.Live {
		t.Fatalf("GC did not reclaim: Live %d -> %d", s1.Live, s2.Live)
	}
}

func TestStatsDelta(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 8})
	before := k.Stats()
	f := bdd.True
	for i := 0; i < 8; i++ {
		f = k.And(f, k.Var(i))
	}
	after := k.Stats()
	d := after.DeltaSince(before)
	if d.NodesAllocated == 0 || d.Ops == 0 {
		t.Fatalf("work left no delta: %+v", d)
	}
	if d.IsZero() {
		t.Fatalf("non-empty delta reports IsZero: %+v", d)
	}
	if got := after.DeltaSince(after); !got.IsZero() {
		t.Fatalf("self-delta = %+v, want zero", got)
	}
	// Allocs stays monotonic across GC, so post-GC deltas cannot go
	// negative the way Live-based accounting would.
	k.GC()
	gcd := k.Stats().DeltaSince(after)
	if gcd.GCRuns != 1 {
		t.Fatalf("GCRuns delta = %d, want 1", gcd.GCRuns)
	}
	if k.Stats().Allocs < after.Allocs {
		t.Fatalf("Allocs shrank across GC: %d -> %d", after.Allocs, k.Stats().Allocs)
	}
	sum := d.Add(gcd)
	if sum.NodesAllocated != d.NodesAllocated+gcd.NodesAllocated || sum.GCRuns != d.GCRuns+gcd.GCRuns {
		t.Fatalf("Add mismatch: %+v + %+v = %+v", d, gcd, sum)
	}
}

func TestSetBudgetAbortsAndRestores(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 16})
	a := k.Protect(k.And(k.Var(0), k.Var(1)))
	if k.Budget() != 0 {
		t.Fatalf("Budget() = %d, want 0", k.Budget())
	}
	// A budget below the live count must abort the next allocation.
	k.SetBudget(1)
	if k.Budget() != 1 {
		t.Fatalf("Budget() = %d, want 1", k.Budget())
	}
	if f := k.And(k.Var(2), k.Var(3)); f != bdd.Invalid {
		t.Fatalf("allocation under tiny budget returned %v, want Invalid", f)
	}
	if !errors.Is(k.Err(), bdd.ErrBudget) {
		t.Fatalf("Err() = %v, want ErrBudget", k.Err())
	}
	k.ClearErr()
	// Restoring the budget makes the kernel usable again, and previously
	// built nodes survived the aborted operation.
	k.SetBudget(0)
	f := k.And(k.Var(2), k.Var(3))
	if f == bdd.Invalid || k.Err() != nil {
		t.Fatalf("after restore: f=%v err=%v", f, k.Err())
	}
	if g := k.And(k.Var(0), k.Var(1)); g != a {
		t.Fatalf("pinned node lost across budget abort: %v != %v", g, a)
	}
	// Negative means unlimited, like Config.
	k.SetBudget(-5)
	if k.Budget() != 0 {
		t.Fatalf("Budget() after SetBudget(-5) = %d, want 0", k.Budget())
	}
}

// randomMinterms ORs together n random minterms over nv variables.
func randomMinterms(k *bdd.Kernel, rng *rand.Rand, nv, n int) bdd.Ref {
	f := bdd.False
	lits := make([]bdd.Literal, nv)
	for i := 0; i < n; i++ {
		for v := range lits {
			lits[v] = bdd.Literal{Var: v, Value: rng.Intn(2) == 1}
		}
		f = k.Or(f, k.Minterm(lits))
	}
	return f
}

// TestGCTriggerFollowsLiveSet: a budgeted kernel's safe points collect once
// its garbage outgrows its live set, long before the table reaches the
// budget — the table never shrinks, so whatever the trigger lets pile up is
// resident for the life of the kernel.
func TestGCTriggerFollowsLiveSet(t *testing.T) {
	const nv, budget = 40, 1_000_000
	rng := rand.New(rand.NewSource(5))
	k := bdd.New(bdd.Config{Vars: nv, NodeBudget: budget})
	pinned := k.Protect(randomMinterms(k, rng, nv, 400))
	defer k.Unprotect(pinned)
	k.GC()
	base := k.Stats()
	if base.Live < 9_000 || base.Live > 12_000 {
		t.Fatalf("fixture pins %d nodes, want about 10k", base.Live)
	}
	gcs := base.GCRuns
	for k.Stats().Allocs-base.Allocs < 500_000 {
		randomMinterms(k, rng, nv, 300)
		if k.Stats().GCRuns != gcs {
			t.Fatal("an operation collected: only safe points may")
		}
		k.SafePoint()
		gcs = k.Stats().GCRuns
	}
	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
	s := k.Stats()
	if s.GCRuns == base.GCRuns {
		t.Fatalf("500k garbage nodes on %d live ones and no collection", base.Live)
	}
	if limit := budget / 4; s.Peak > limit || s.Capacity > limit {
		t.Fatalf("Peak %d, Capacity %d: want both under %d, the trigger follows the live set and not the budget", s.Peak, s.Capacity, limit)
	}
	if g := randomMinterms(k, rand.New(rand.NewSource(5)), nv, 400); g != pinned {
		t.Fatal("pinned function did not survive the collections")
	}
}

// TestSetBudgetKeepsTheTriggerBase: a service caps a request's budget and
// restores it afterwards. The round trip re-caps the trigger but must not
// re-base it on the live count of the moment, garbage included, or a stream
// of such requests never reaches its trigger and grows until the budget
// aborts an evaluation.
func TestSetBudgetKeepsTheTriggerBase(t *testing.T) {
	const nv, budget = 40, 1_000_000
	rng := rand.New(rand.NewSource(7))
	k := bdd.New(bdd.Config{Vars: nv, NodeBudget: budget})
	pinned := k.Protect(randomMinterms(k, rng, nv, 400))
	defer k.Unprotect(pinned)
	k.GC()
	for i := 0; i < 40; i++ {
		k.SetBudget(budget / 2)
		randomMinterms(k, rng, nv, 300)
		k.SetBudget(budget)
		k.SafePoint()
	}
	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
	s := k.Stats()
	if s.GCRuns < 3 {
		t.Fatalf("%d collections in 40 rounds of garbage", s.GCRuns)
	}
	if limit := budget / 4; s.Peak > limit {
		t.Fatalf("Peak %d, want under %d: the budget round trips re-based the trigger on garbage", s.Peak, limit)
	}
}

// TestNoOperationCollects: a Ref held unpinned across many operations stays
// valid until the next safe point — even under DebugChecks, where that safe
// point collects whatever it finds.
func TestNoOperationCollects(t *testing.T) {
	const nv = 16
	rng := rand.New(rand.NewSource(11))
	k := bdd.New(bdd.Config{Vars: nv, DebugChecks: true})
	held := k.Xor(k.Var(0), k.Var(nv-1))
	n := k.NodeCount(held)
	for i := 0; i < 100; i++ {
		randomMinterms(k, rng, nv, 4)
	}
	if gcs := k.Stats().GCRuns; gcs != 0 {
		t.Fatalf("%d collections inside operations", gcs)
	}
	if k.Not(k.Not(held)) != held || k.NodeCount(held) != n {
		t.Fatal("the unpinned Ref changed across the operations")
	}
	k.SafePoint()
	if gcs := k.Stats().GCRuns; gcs != 1 {
		t.Fatalf("a DebugChecks safe point ran %d collections, want 1", gcs)
	}
}
