package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bdd"
)

// threshold.go reproduces the §5.2 "Evaluating BDD overhead" table: the
// time to fill a node buffer of a given size with an inherently intractable
// construction, which bounds the overhead the abort-and-fall-back-to-SQL
// strategy pays when a constraint explodes. The paper picks a threshold of
// 10^6 nodes: ~3.5 seconds of overhead on their hardware, a 1-3% overhead
// relative to the 100-250 second SQL queries it falls back to.

// fillBudget builds random 3-CNF-style constraints over nVars variables
// until the kernel's node budget aborts, returning the time taken and the
// kernel work done.
func fillBudget(budget int, rng *rand.Rand) (time.Duration, bdd.Delta, error) {
	const nVars = 96
	k := bdd.New(bdd.Config{Vars: nVars, NodeBudget: budget, CacheSize: 1 << 18})
	before := k.Stats()
	start := time.Now()
	f := bdd.True
	for i := 0; ; i++ {
		// One random XOR-of-3 clause; conjunctions of these blow up under
		// any static ordering.
		a, b, c := rng.Intn(nVars), rng.Intn(nVars), rng.Intn(nVars)
		clause := k.Xor(k.Xor(k.Var(a), k.Var(b)), k.Var(c))
		next := k.And(f, clause)
		if next == bdd.Invalid {
			// Errors surfacing from the kernel may wrap ErrBudget, so an
			// identity comparison would misclassify them as fatal.
			if errors.Is(k.Err(), bdd.ErrBudget) {
				return time.Since(start), k.Stats().DeltaSince(before), nil
			}
			return 0, bdd.Delta{}, k.Err()
		}
		// Only the newest conjunction is pinned across the safe point.
		k.Unprotect(f)
		f = k.Protect(next)
		k.SafePoint()
		if i > 1<<20 {
			return 0, bdd.Delta{}, fmt.Errorf("threshold: budget %d never reached", budget)
		}
	}
}

// Threshold prints the buffer-fill time per node-budget size.
func Threshold(cfg Config) error {
	w := cfg.out()
	fmt.Fprintln(w, "=== §5.2 threshold table: time to fill a node buffer before aborting to SQL ===")
	budgets := []int{1_000, 100_000, 1_000_000, 10_000_000}
	if !cfg.Full {
		budgets = []int{1_000, 100_000, 1_000_000}
	}
	fmt.Fprintf(w, "%-14s %14s\n", "threshold", "fill time")
	for _, b := range budgets {
		d, work, err := fillBudget(b, cfg.rng(int64(b)))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14d %14v\n", b, d.Round(time.Millisecond))
		cfg.record(BenchRow{
			Experiment: "threshold", Name: "fill",
			Params:  map[string]any{"budget": b},
			NsPerOp: d.Nanoseconds(), Nodes: b,
		}.withWork(work))
	}
	fmt.Fprintln(w, "paper: 10^3→2.0s, 10^5→2.2s, 10^6→3.5s, 10^7→17s (2007 hardware);")
	fmt.Fprintln(w, "the chosen 10^6 threshold bounds the BDD overhead to a small constant")
	return nil
}
