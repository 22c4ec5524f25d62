package core_test

import (
	"errors"
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
// live+20 000. A verdict must equal an unlimited checker's, whether the BDD
// or the SQL fallback decided it, an aborted check must end as a clean SQL
// fallback, and an aborted Apply must report ErrBudget. This is the runtime
// guard of the kernel's sticky error: a caller that drops an Invalid check
// ends up with a wrong verdict, an error, or a panic here.
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
	k := chk.Store().Kernel()

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
		prev := k.Budget()
		k.SetBudget(k.Size() + slack)
		applied, err := chk.Apply(batch)
		k.SetBudget(prev)
		if err != nil {
			if !errors.Is(err, bdd.ErrBudget) {
				t.Fatalf("round %d: Apply under live+%d: %v", round, slack, err)
			}
			applyAborts++
			// The aborted insert reached the table but not the index;
			// inserting it again makes the two agree (the duplicate row
			// changes no verdict).
			if _, err := chk.Apply(batch[applied:]); err != nil {
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
