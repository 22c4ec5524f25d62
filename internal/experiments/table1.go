package experiments

import (
	"fmt"
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/logic"
	"repro/internal/sqlengine"
)

// table1.go reproduces Table 1 ("Variable Ordering Gain"): the five
// constraint queries Q1–Q5 on synthetic data, timed under the SQL baseline,
// BDD indices with a random variable ordering, and BDD indices with the
// Prob-Converge ordering. Paper: random ordering gains up to 2× over SQL,
// the optimized ordering 4–6×.

// Table1 runs the workload and prints the three rows.
func Table1(cfg Config) error {
	w := cfg.out()
	spec := datagen.Table1Spec{MainTuples: 50000, RefTuples: 10000}
	if cfg.Full {
		spec.MainTuples = 400000
		spec.RefTuples = 80000
	}
	fmt.Fprintf(w, "=== Table 1: variable ordering gain (REL: %d tuples, REF: %d) ===\n",
		spec.MainTuples, spec.RefTuples)
	workload, err := datagen.NewTable1Workload(spec, cfg.rng(500))
	if err != nil {
		return err
	}

	names := make([]string, len(workload.Constraints))
	for i, ct := range workload.Constraints {
		names[i] = fmt.Sprintf("Q%d", i+1)
		_ = ct
	}

	// SQL baseline.
	sqlTimes := make([]time.Duration, len(workload.Constraints))
	sqlViolated := make([]bool, len(workload.Constraints))
	res := logic.CatalogResolver{Catalog: workload.Catalog}
	for i, ct := range workload.Constraints {
		start := time.Now()
		q, err := sqlengine.Compile(ct, res)
		if err != nil {
			return fmt.Errorf("table1 %s: %w", names[i], err)
		}
		violated, _, err := q.Run()
		if err != nil {
			return fmt.Errorf("table1 %s: %w", names[i], err)
		}
		sqlTimes[i] = time.Since(start)
		sqlViolated[i] = violated
	}

	// BDD with random and with Prob-Converge orderings.
	// Each run returns the check times, and the kernel work of each check.
	run := func(method core.OrderingMethod) ([]time.Duration, []bdd.Delta, error) {
		chk := core.New(workload.Catalog, core.Options{RandomSeed: cfg.Seed + int64(method)})
		for _, tbl := range []string{"REL", "REF"} {
			if _, err := chk.BuildIndex(tbl, tbl, nil, method); err != nil {
				return nil, nil, err
			}
		}
		times := make([]time.Duration, len(workload.Constraints))
		work := make([]bdd.Delta, len(workload.Constraints))
		for i, ct := range workload.Constraints {
			r := chk.CheckOne(ct)
			if r.Err != nil {
				return nil, nil, fmt.Errorf("%s: %w", names[i], r.Err)
			}
			if r.FellBack {
				return nil, nil, fmt.Errorf("%s: unexpected fallback: %v", names[i], r.FallbackReason)
			}
			if r.Violated != sqlViolated[i] {
				return nil, nil, fmt.Errorf("%s: BDD (%v) and SQL (%v) disagree", names[i], r.Violated, sqlViolated[i])
			}
			times[i], work[i] = r.Duration, r.Kernel
		}
		return times, work, nil
	}
	randTimes, randWork, err := run(core.OrderRandom)
	if err != nil {
		return err
	}
	optTimes, optWork, err := run(core.OrderProbConverge)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-16s", "approach")
	for _, n := range names {
		fmt.Fprintf(w, " %12s", n)
	}
	fmt.Fprintln(w)
	row := func(label string, times []time.Duration) {
		fmt.Fprintf(w, "%-16s", label)
		for _, t := range times {
			fmt.Fprintf(w, " %12v", t.Round(time.Microsecond))
		}
		fmt.Fprintln(w)
	}
	row("SQL", sqlTimes)
	row("BDD: random", randTimes)
	row("BDD: optimized", optTimes)
	for i, n := range names {
		for _, m := range []struct {
			approach string
			times    []time.Duration
			work     []bdd.Delta
		}{{"sql", sqlTimes, make([]bdd.Delta, len(names))}, {"bdd-random", randTimes, randWork}, {"bdd-optimized", optTimes, optWork}} {
			cfg.record(BenchRow{
				Experiment: "table1", Name: "check",
				Params:  map[string]any{"query": n, "approach": m.approach, "tuples": spec.MainTuples},
				NsPerOp: m.times[i].Nanoseconds(),
			}.withWork(m.work[i]))
		}
	}
	fmt.Fprintf(w, "%-16s", "opt gain vs SQL")
	for i := range names {
		fmt.Fprintf(w, " %11.1fx", float64(sqlTimes[i])/float64(optTimes[i]))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "paper: SQL 1778-4234ms, random 1113-2347ms, optimized 240-1041ms (gain 4-6x)")
	return nil
}
