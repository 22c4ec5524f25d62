package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bdd"
	"repro/internal/fdd"
)

// fig6.go reproduces Figure 6: the three rewrite-rule comparisons at the
// BDD level — the equi-join rename rule (a), existential pull-up with
// AppEx (b), and universal push-down with AppAll (c).

// randomRelationBDD builds a BDD over the given blocks with approximately
// the requested node count, by adding random tuples until the size target
// is reached.
func randomRelationBDD(k *bdd.Kernel, doms []*fdd.Domain, targetNodes int, rng *rand.Rand) (bdd.Ref, error) {
	f := bdd.False
	defer func() { k.Unprotect(f) }() // the caller pins what it keeps
	batch := 4096
	vals := make([]int, len(doms))
	prev := -1
	for {
		n := k.NodeCount(f)
		if n >= targetNodes {
			break
		}
		if n == prev {
			return bdd.Invalid, fmt.Errorf("experiments: BDD saturated at %d nodes before reaching %d; widen the variable space", n, targetNodes)
		}
		prev = n
		// Doubling batches keep the per-batch NodeCount scan amortized.
		if batch < 1<<17 {
			batch *= 2
		}
		rows := make([][]int, batch)
		for i := range rows {
			for j, d := range doms {
				vals[j] = rng.Intn(d.Size())
			}
			rows[i] = append([]int(nil), vals...)
		}
		g, err := fdd.Relation(doms, rows)
		if err != nil {
			return bdd.Invalid, err
		}
		nf := k.Or(f, g)
		if nf == bdd.Invalid {
			return bdd.Invalid, k.Err()
		}
		// Only the newest accumulator is pinned across the safe point, so
		// superseded versions can be collected.
		k.Unprotect(f)
		f = k.Protect(nf)
		k.SafePoint()
	}
	return f, nil
}

// fig6aSizes returns the |BDD(R1)| sweep.
func (c Config) fig6aSizes() []int {
	if c.Full {
		return []int{100000, 200000, 300000, 400000, 500000, 600000, 700000, 800000}
	}
	return []int{50000, 100000, 200000, 300000}
}

// Fig6a compares the two equi-join strategies of §4.2 while growing
// |BDD(R1)| and holding |BDD(R2)| ≈ 50k nodes: naive = conjoin equality
// BDDs on the join attributes and quantify them out; optimized = rename
// R2's attributes onto R1's and conjoin. Run for joins on one and two
// attributes. Paper: optimized is 2–3× faster.
func Fig6a(cfg Config) error {
	w := cfg.out()
	fmt.Fprintln(w, "=== Figure 6(a): equi-join rewrite, naive vs rename (|BDD(R2)| ≈ 50k) ===")
	fmt.Fprintf(w, "%-12s | %12s %12s %8s | %12s %12s %8s\n",
		"R1 nodes", "naive 1a", "rename 1a", "gain", "naive 2a", "rename 2a", "gain")
	for _, target := range cfg.fig6aSizes() {
		var cells [2][2]time.Duration // [attrs-1][naive|rename]
		for ai, attrs := range []int{1, 2} {
			k := bdd.New(bdd.Config{Vars: 0, CacheSize: 1 << 18})
			space := fdd.NewSpace(k)
			rng := cfg.rng(int64(target + attrs))
			// R1(a, b...) and R2(c..., d): join R1.b⋈R2.c on `attrs`
			// attributes. The equality-clause strategy must track every
			// joined bit between the two relations' blocks, so its cost
			// grows exponentially with the joined width: on one 10-bit
			// attribute it pays the paper's small-integer factor, on two it
			// degrades catastrophically — the §4.2 size argument taken to
			// its limit (the paper's structured synthetic relations kept it
			// at 2-3x even there).
			const domSize = 1 << 10
			var r1Doms, r2Doms []*fdd.Domain
			// Two non-join attributes: a single 20-bit relation saturates
			// (every tuple present, BDD collapses towards True) below the
			// larger node targets.
			r1Doms = append(r1Doms,
				space.NewDomain("a0", domSize), space.NewDomain("a1", domSize))
			var joinL, joinR []*fdd.Domain
			for i := 0; i < attrs; i++ {
				d := space.NewDomain(fmt.Sprintf("b%d", i), domSize)
				r1Doms = append(r1Doms, d)
				joinL = append(joinL, d)
			}
			for i := 0; i < attrs; i++ {
				d := space.NewDomain(fmt.Sprintf("c%d", i), domSize)
				r2Doms = append(r2Doms, d)
				joinR = append(joinR, d)
			}
			r2Doms = append(r2Doms, space.NewDomain("d", domSize))
			r1, err := randomRelationBDD(k, r1Doms, target, rng)
			if err != nil {
				return err
			}
			k.Protect(r1)
			r2, err := randomRelationBDD(k, r2Doms, 50000, rng)
			if err != nil {
				return err
			}
			k.Protect(r2)

			// Naive: R1 ∧ R2 ∧ (b = c), then ∃c. Flush caches first so the
			// two strategies start cold.
			k.ClearCaches()
			k.GC()
			start := time.Now()
			eq := bdd.True
			for i := range joinL {
				eq = k.And(eq, fdd.EqVar(joinL[i], joinR[i]))
			}
			step := k.And(k.And(r1, r2), eq)
			naiveRes := fdd.Exists(step, joinR...)
			cells[ai][0] = time.Since(start)
			if naiveRes == bdd.Invalid {
				return k.Err()
			}
			k.Protect(naiveRes)

			// Optimized: rename R2's join block onto R1's, then ∧.
			k.ClearCaches()
			k.GC()
			start = time.Now()
			m, err := fdd.ReplaceMap(joinR, joinL)
			if err != nil {
				return err
			}
			renameRes := k.And(r1, k.Replace(r2, m))
			cells[ai][1] = time.Since(start)
			if renameRes == bdd.Invalid {
				return k.Err()
			}
			k.Protect(renameRes)
			// Same join result up to the projected-away c attributes.
			if fdd.Exists(naiveRes, joinL...) != fdd.Exists(renameRes, joinL...) {
				return fmt.Errorf("fig6a: strategies disagree at %d nodes, %d attrs", target, attrs)
			}
			k.Unprotect(naiveRes)
			k.Unprotect(renameRes)
			k.Unprotect(r1)
			k.Unprotect(r2)
			for si, strategy := range []string{"naive", "rename"} {
				cfg.record(BenchRow{Experiment: "fig6a", Name: "join", Params: map[string]any{"r1_nodes": target, "attrs": attrs, "strategy": strategy}, NsPerOp: cells[ai][si].Nanoseconds()})
			}
		}
		fmt.Fprintf(w, "%-12d | %12v %12v %8.1f | %12v %12v %8.1f\n",
			target,
			cells[0][0].Round(time.Microsecond), cells[0][1].Round(time.Microsecond),
			float64(cells[0][0])/float64(cells[0][1]),
			cells[1][0].Round(time.Microsecond), cells[1][1].Round(time.Microsecond),
			float64(cells[1][0])/float64(cells[1][1]))
	}
	fmt.Fprintln(w, "paper: the rename strategy is 2-3x faster than the equality-clause strategy")
	return nil
}

// fig6bcSizes returns the |P| sweep for the quantifier experiments.
func (c Config) fig6bcSizes() []int {
	if c.Full {
		return []int{200000, 400000, 600000, 800000, 1000000, 1200000, 1400000}
	}
	return []int{50000, 100000, 200000, 400000}
}

// fig6Setup builds two relation BDDs P and Q over a shared block layout
// (x, y, z) with |P| ≈ target and |Q| ≈ 50k nodes.
func fig6Setup(cfg Config, target int, seedOff int64, bottom bool) (*bdd.Kernel, bdd.Ref, bdd.Ref, bdd.Ref, error) {
	k := bdd.New(bdd.Config{Vars: 0, CacheSize: 1 << 18})
	space := fdd.NewSpace(k)
	rng := cfg.rng(int64(target) + seedOff)
	const domSize = 1 << 10
	x := space.NewDomain("x", domSize)
	y := space.NewDomain("y", domSize)
	z := space.NewDomain("z", domSize)
	doms := []*fdd.Domain{x, y, z}
	p, err := randomRelationBDD(k, doms, target, rng)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	k.Protect(p)
	q, err := randomRelationBDD(k, doms, 50000, rng)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	k.Protect(q)
	var cube bdd.Ref
	if bottom {
		// Quantifying the bottom block is the expensive case where the
		// fused AppEx pays off (Figure 6(b)).
		cube = k.Protect(z.Cube())
	} else {
		// Quantifying the top block makes ∀xφ small, the regime where
		// pushing ∀ down beats the fused evaluation (Figure 6(c)).
		_ = z
		cube = k.Protect(x.Cube())
	}
	return k, p, q, cube, nil
}

// Fig6b compares the two evaluations of ∃x φ1 ∨ ∃x φ2 (Equation 3):
// quantifying each side then disjoining, versus pulling the quantifier up
// and using the combined AppEx. Paper: the pulled-up AppEx form wins.
func Fig6b(cfg Config) error {
	w := cfg.out()
	fmt.Fprintln(w, "=== Figure 6(b): existential pull-up, Ex(P) OR Ex(Q) vs AppEx(P OR Q) ===")
	fmt.Fprintf(w, "%-12s | %14s %14s %8s\n", "P nodes", "Ex∨Ex", "AppEx(∨)", "gain")
	for _, target := range cfg.fig6bcSizes() {
		k, p, q, cube, err := fig6Setup(cfg, target, 63, true)
		if err != nil {
			return err
		}
		k.ClearCaches()
		k.GC()
		start := time.Now()
		sep := k.Or(k.Exists(p, cube), k.Exists(q, cube))
		tSep := time.Since(start)
		//lint:ignore protect the kernel is discarded at the end of this loop iteration, so the pin only needs to outlive the AppEx below
		k.Protect(sep)

		k.ClearCaches()
		k.GC()
		start = time.Now()
		comb := k.AppEx(p, q, bdd.OpOr, cube)
		tComb := time.Since(start)
		if sep != comb {
			return fmt.Errorf("fig6b: strategies disagree at %d nodes", target)
		}
		cfg.record(BenchRow{Experiment: "fig6b", Name: "exists", Params: map[string]any{"p_nodes": target, "strategy": "ex-or-ex"}, NsPerOp: tSep.Nanoseconds()})
		cfg.record(BenchRow{Experiment: "fig6b", Name: "exists", Params: map[string]any{"p_nodes": target, "strategy": "appex"}, NsPerOp: tComb.Nanoseconds()})
		fmt.Fprintf(w, "%-12d | %14v %14v %8.1f\n",
			target, tSep.Round(time.Microsecond), tComb.Round(time.Microsecond),
			float64(tSep)/float64(tComb))
	}
	fmt.Fprintln(w, "paper: the combined bdd_appex evaluation is faster; pull ∃ up across ∨")
	return nil
}

// Fig6c compares the two evaluations of ∀x(φ1 ∧ φ2) (Equation 4 / Rule 5):
// the combined AppAll on the conjunction versus pushing the quantifier down
// and conjoining ∀xφ1 ∧ ∀xφ2. Paper: push-down wins because ∀xφ is much
// smaller than φ.
func Fig6c(cfg Config) error {
	w := cfg.out()
	fmt.Fprintln(w, "=== Figure 6(c): universal push-down, AppAll(P AND Q) vs FA(P) AND FA(Q) ===")
	fmt.Fprintf(w, "%-12s | %14s %14s %8s\n", "P nodes", "AppAll(∧)", "FA∧FA", "gain")
	for _, target := range cfg.fig6bcSizes() {
		k, p, q, cube, err := fig6Setup(cfg, target, 87, false)
		if err != nil {
			return err
		}
		k.ClearCaches()
		k.GC()
		start := time.Now()
		comb := k.AppAll(p, q, bdd.OpAnd, cube)
		tComb := time.Since(start)
		k.Protect(comb)

		k.ClearCaches()
		k.GC()
		start = time.Now()
		push := k.And(k.Forall(p, cube), k.Forall(q, cube))
		tPush := time.Since(start)
		if push != comb {
			return fmt.Errorf("fig6c: strategies disagree at %d nodes", target)
		}
		k.Unprotect(comb)
		cfg.record(BenchRow{Experiment: "fig6c", Name: "forall", Params: map[string]any{"p_nodes": target, "strategy": "appall"}, NsPerOp: tComb.Nanoseconds()})
		cfg.record(BenchRow{Experiment: "fig6c", Name: "forall", Params: map[string]any{"p_nodes": target, "strategy": "fa-and-fa"}, NsPerOp: tPush.Nanoseconds()})
		fmt.Fprintf(w, "%-12d | %14v %14v %8.1f\n",
			target, tComb.Round(time.Microsecond), tPush.Round(time.Microsecond),
			float64(tComb)/float64(tPush))
	}
	fmt.Fprintln(w, "paper: pushing ∀ down across ∧ beats the combined evaluation of the conjunction")
	return nil
}
