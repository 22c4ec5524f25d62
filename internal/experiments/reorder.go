package experiments

// reorder.go measures dynamic variable reordering (sifting) on a workload
// whose schema ordering is deliberately pessimal: the relation carries two
// correlated column pairs interleaved as (k1, x1, k2, x2), where k2 copies
// k1 and x2 copies x1 (minus a little noise). An index built in schema
// order must carry k1's full value across the unrelated x1 block before it
// can match k2, so the BDD is wide; sifting discovers the paired layout and
// collapses it. The experiment reports the live-node count before and after
// the sift, check-latency quantiles over a churn-plus-check workload in both
// regimes, and the write-path pause one sift costs.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/relation"
)

// reorderConstraints are the checks timed in both regimes: the key pair
// copies where the value pair does (holds), and the value pair copies where
// the key pair does (violated by the injected noise rows). Every row copies
// its key, so on this data they give the verdicts of the plain copy
// invariants `R(a, b, c, d) => a = c` and `=> b = d`. Those use two columns
// once, so a verdict reads a projection, which the index maintains across
// the churn and which costs next to nothing; these name all four columns
// twice, so both quantify over the full index and their cost tracks the
// kernel's live size.
const reorderConstraints = `
	constraint key_pair:
	    forall a, b, c, d: R(a, b, c, d) and b = d => a = c.
	constraint val_pair:
	    forall a, b, c, d: R(a, b, c, d) and a = c => b = d.
`

// Reorder builds the skewed index, runs the check workload under the schema
// order, sifts once, and reruns the identical workload under the sifted
// order.
func Reorder(cfg Config) error {
	w := cfg.out()
	tuples, rounds, dom := 20000, 60, 256
	if cfg.Full {
		tuples, rounds = 100000, 120
	}
	cat := relation.NewCatalog()
	tbl, err := cat.CreateTable("R", []relation.Column{
		{Name: "k1", Domain: "pairK"}, {Name: "x1", Domain: "pairX"},
		{Name: "k2", Domain: "pairK"}, {Name: "x2", Domain: "pairX"},
	})
	if err != nil {
		return err
	}
	rng := cfg.rng(700)
	used := make(map[string]bool)
	var pool [][]string
	fresh := func() []string {
		for {
			k := fmt.Sprintf("K%03d", rng.Intn(dom))
			x := fmt.Sprintf("X%03d", rng.Intn(dom))
			row := []string{k, x, k, x}
			if rng.Float64() < 0.003 { // noise: break the x-pair copy
				row[3] = fmt.Sprintf("X%03d", rng.Intn(dom))
			}
			key := row[0] + "|" + row[1] + "|" + row[3]
			if used[key] {
				continue
			}
			used[key] = true
			return row
		}
	}
	// The first dom rows pin every dictionary value so later churn never
	// grows a dictionary past the block width the index build chose.
	for i := 0; i < tuples; i++ {
		var row []string
		if i < dom {
			row = []string{
				fmt.Sprintf("K%03d", i), fmt.Sprintf("X%03d", i),
				fmt.Sprintf("K%03d", i), fmt.Sprintf("X%03d", i),
			}
			used[row[0]+"|"+row[1]+"|"+row[3]] = true
		} else {
			row = fresh()
		}
		tbl.Insert(row...)
		pool = append(pool, row)
	}

	chk := core.New(cat, core.Options{NodeBudget: 16_000_000})
	buildStart := time.Now()
	if _, err := chk.BuildIndex("R", "R", nil, core.OrderSchema); err != nil {
		return err
	}
	buildTime := time.Since(buildStart)
	cts, err := logic.ParseConstraints(reorderConstraints)
	if err != nil {
		return err
	}

	// One churn round changes the relation (one fresh insert, one delete of
	// the oldest row) so every check re-derives its answer against a new
	// index root rather than replaying a cached verdict, then times every
	// constraint with the operation caches dropped first — the cold-cache
	// regime a freshly replicated kernel is in right after adopting a new
	// epoch, where evaluation cost tracks the live size of the index.
	head := 0
	phase := func() ([]time.Duration, error) {
		samples := make([]time.Duration, 0, rounds*len(cts))
		for r := 0; r < rounds; r++ {
			row := fresh()
			if err := chk.InsertTuple("R", row...); err != nil {
				return nil, err
			}
			pool = append(pool, row)
			if err := chk.DeleteTuple("R", pool[head]...); err != nil {
				return nil, err
			}
			head++
			chk.Store().Kernel().ClearCaches()
			for _, ct := range cts {
				res := chk.CheckOne(ct)
				if res.Err != nil {
					return nil, fmt.Errorf("reorder: %s: %w", ct.Name, res.Err)
				}
				if res.FellBack {
					return nil, fmt.Errorf("reorder: %s fell back: %v", ct.Name, res.FallbackReason)
				}
				if (ct.Name == "key_pair") == res.Violated {
					return nil, fmt.Errorf("reorder: %s verdict flipped (violated=%v)", ct.Name, res.Violated)
				}
				samples = append(samples, res.Duration)
			}
		}
		return samples, nil
	}

	before, err := phase()
	if err != nil {
		return err
	}
	chk.Store().Kernel().ClearCaches()
	chk.Store().Kernel().GC()
	liveBefore := chk.KernelStats().Live

	siftStart := time.Now()
	st := chk.Reorder()
	pause := time.Since(siftStart)
	if err := chk.Store().Kernel().Err(); err != nil {
		return err
	}
	liveAfter := chk.KernelStats().Live

	after, err := phase()
	if err != nil {
		return err
	}

	// checkRow summarises one phase's samples (sorted by withPercentiles).
	checkRow := func(name, order string, live int, samples []time.Duration) BenchRow {
		r := BenchRow{
			Experiment: "reorder", Name: name,
			Params: map[string]any{"tuples": tuples, "rounds": rounds, "order": order},
			Nodes:  live,
		}.withPercentiles(samples)
		r.NsPerOp = r.P50NS
		r.Params["slowest_ns"] = samples[len(samples)-1].Nanoseconds()
		return r
	}

	drop := 100 * (1 - float64(liveAfter)/float64(liveBefore))
	fmt.Fprintf(w, "=== Reorder: sifting a pessimal schema order (%d tuples, %d check rounds) ===\n", tuples, rounds)
	fmt.Fprintf(w, "index build (schema order): %v\n", buildTime.Round(time.Millisecond))
	fmt.Fprintf(w, "%-14s %12s %12s %12s %12s\n", "phase", "live nodes", "p50", "p95", "p99")
	for _, r := range []BenchRow{
		checkRow("check_before", "schema", liveBefore, before),
		checkRow("check_after", "sifted", liveAfter, after),
	} {
		fmt.Fprintf(w, "%-14s %12d %12v %12v %12v\n", r.Params["order"], r.Nodes,
			time.Duration(r.P50NS), time.Duration(r.P95NS), time.Duration(r.P99NS))
		cfg.record(r)
	}
	fmt.Fprintf(w, "sift pause: %v (%d -> %d nodes, %.1f%% drop, %d swaps over %d blocks)\n",
		pause.Round(time.Millisecond), st.Before, st.After, drop, st.Swaps, st.Blocks)
	fmt.Fprintln(w, "expectation: >= 20% live-node drop and a lower p95 under the sifted order")

	cfg.record(BenchRow{
		Experiment: "reorder", Name: "sift",
		Params: map[string]any{
			"tuples": tuples, "nodes_before": st.Before, "nodes_after": st.After,
			"swaps": st.Swaps, "blocks": st.Blocks, "drop_pct": drop,
		},
		NsPerOp: pause.Nanoseconds(), Nodes: liveAfter,
	})
	return nil
}
