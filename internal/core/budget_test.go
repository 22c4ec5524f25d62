package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/logic"
	"repro/internal/relation"
)

// TestBudgetSweep exercises the paper's threshold strategy between the
// extremes: a node budget that aborts BDD work somewhere in the middle of a
// check or an update batch, not at its first allocation. Every check runs
// under per-call budgets from live+1 to live+60 000 nodes, and every
// 200-insert Apply batch under a checker-wide budget from live+50 to
// live+20 000. Before each batch an unbudgeted check of a constant-free
// constraint leaves the index a projection to maintain, so a batch can abort
// in that projection's upkeep as well as in the index's own. A verdict must
// equal an unlimited checker's, whether the BDD or the SQL fallback decided
// it, an aborted check must end as a clean SQL fallback, and an aborted Apply
// must report ErrBudget. This is the runtime guard of the kernel's sticky
// error: a caller that drops an Invalid check ends up with a wrong verdict,
// an error, or a panic here.
func TestBudgetSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cat := relation.NewCatalog()
	if _, err := datagen.Customers(cat, "CUST", datagen.CustomerSpec{Tuples: 3000, NoiseRate: 0.02}, rng); err != nil {
		t.Fatal(err)
	}
	refCat := cat.Clone()
	cts, err := logic.ParseConstraints(`
		constraint city_state:
		    forall c, s1, s2: CUST(_, _, c, s1, _) and CUST(_, _, c, s2, _) => s1 = s2.
		constraint area_state:
		    forall a, s1, s2: CUST(a, _, _, s1, _) and CUST(a, _, _, s2, _) => s1 = s2.
		constraint city0_zip:
		    forall a, n, s, z: CUST(a, n, "city00000", s, z) => z in {"Z00000", "Z10894"}.
		constraint cities_states:
		    forall c, s: CUST(_, _, c, s, _) and c in {"city00000", "city00001", "city00002"} => s in {"S00", "S01", "S02"}.
	`)
	if err != nil {
		t.Fatal(err)
	}
	chk := core.New(cat, core.Options{})
	ref := core.New(refCat, core.Options{NodeBudget: -1})
	for _, c := range []*core.Checker{chk, ref} {
		if _, err := c.BuildIndex("CUST", "CUST", nil, core.OrderProbConverge); err != nil {
			t.Fatal(err)
		}
	}
	k := chk.Kernel()

	checkAborts, applyAborts := 0, 0
	sweepChecks := func(round int) {
		for _, ct := range cts {
			want := ref.CheckOne(ct)
			if want.Err != nil || want.FellBack {
				t.Fatalf("round %d: unlimited %s: %+v", round, ct.Name, want)
			}
			for slack := 1; slack <= 60000; slack *= 3 {
				res := chk.CheckOneOpts(ct, core.CheckOptions{NodeBudget: k.Size() + slack})
				if res.Err != nil {
					t.Fatalf("round %d: %s at live+%d: %v", round, ct.Name, slack, res.Err)
				}
				if res.FellBack {
					if res.Method != core.MethodSQL || !errors.Is(res.FallbackReason, bdd.ErrBudget) {
						t.Fatalf("round %d: %s at live+%d: unclean fallback %+v", round, ct.Name, slack, res)
					}
					checkAborts++
				}
				if res.Violated != want.Violated {
					t.Fatalf("round %d: %s at live+%d (%s): violated=%v, unlimited says %v",
						round, ct.Name, slack, res.Method, res.Violated, want.Violated)
				}
			}
		}
	}

	table := cat.Table("CUST")
	sweepChecks(0)
	for round, slack := 1, 50; slack <= 20000; round, slack = round+1, slack*2 {
		batch := make([]core.Update, 200)
		for i := range batch {
			// Every value is already in its column's dictionary, so the
			// index's blocks fit it and only the budget can abort the batch.
			row := table.Row(rng.Intn(table.Len()))
			vals := make([]string, len(row))
			for c, code := range row {
				vals[c] = table.ColumnDomain(c).Value(code)
			}
			vals[3] = datagen.StateName(rng.Intn(datagen.NumStates))
			batch[i] = core.Update{Table: "CUST", Op: core.UpdateInsert, Values: vals}
		}
		if res := chk.CheckOne(cts[len(cts)-1]); res.Err != nil || res.FellBack {
			t.Fatalf("round %d: unbudgeted %s: %+v", round, res.Constraint.Name, res)
		}
		prev := k.Budget()
		k.SetBudget(k.Size() + slack)
		applied, err := chk.Apply(batch)
		k.SetBudget(prev)
		if err != nil {
			if !errors.Is(err, bdd.ErrBudget) {
				t.Fatalf("round %d: Apply under live+%d: %v", round, slack, err)
			}
			applyAborts++
			// An aborted batch applies nothing: apply it again, unbudgeted.
			if applied != 0 {
				t.Fatalf("round %d: a batch aborted on the budget applied %d updates", round, applied)
			}
			if _, err := chk.Apply(batch); err != nil {
				t.Fatalf("round %d: re-applying after the abort: %v", round, err)
			}
		}
		if _, err := ref.Apply(batch); err != nil {
			t.Fatal(err)
		}
		sweepChecks(round)
	}
	t.Logf("%d checks and %d Apply batches aborted on the budget", checkAborts, applyAborts)
	if checkAborts < 100 || applyAborts < 5 {
		t.Fatalf("the sweep aborted %d checks and %d Apply batches; it needs at least 100 and 5 to exercise the fallback",
			checkAborts, applyAborts)
	}
}

// TestGarbageIsNotChargedToARequestBudget: the garbage earlier checks leave
// below the collection trigger is collected when a budgeted check starts,
// not counted against its budget. A twin checker runs the same checks,
// collects, and measures what the budgeted check allocates; the budget
// admits exactly that, far less than the garbage.
func TestGarbageIsNotChargedToARequestBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cat := relation.NewCatalog()
	if _, err := datagen.Customers(cat, "CUST", datagen.CustomerSpec{Tuples: 3000, NoiseRate: 0.02}, rng); err != nil {
		t.Fatal(err)
	}
	var cts []logic.Constraint
	for i := 0; i < 8; i++ {
		ct, err := logic.ParseConstraints(fmt.Sprintf(`
			constraint cs%d:
			    forall c, s: CUST(_, _, c, s, _) and c in {"city%05d", "city%05d"} => s in {"S%02d"}.`, i, i, i+8, i))
		if err != nil {
			t.Fatal(err)
		}
		cts = append(cts, ct...)
	}
	chk, twin := core.New(cat, core.Options{}), core.New(cat.Clone(), core.Options{})
	for _, c := range []*core.Checker{chk, twin} {
		if _, err := c.BuildIndex("CUST", "CUST", nil, core.OrderProbConverge); err != nil {
			t.Fatal(err)
		}
		for _, ct := range cts[1:] {
			if res := c.CheckOne(ct); res.Err != nil || res.FellBack {
				t.Fatalf("%s: %+v", ct.Name, res)
			}
		}
	}
	k, tk := chk.Kernel(), twin.Kernel()
	tk.GC()
	collected := tk.Size()
	need := twin.CheckOne(cts[0]).Kernel.NodesAllocated
	if garbage := k.Size() - collected; uint64(garbage) <= need {
		t.Fatalf("the checks left %d garbage nodes, the budgeted one allocates %d: the fixture tests nothing", garbage, need)
	}
	res := chk.CheckOneOpts(cts[0], core.CheckOptions{NodeBudget: collected + int(need) + 1})
	if res.FellBack || res.Err != nil {
		t.Fatalf("a check that fits its budget on a collected kernel fell back: %+v", res)
	}
}
