package difftest

import (
	"errors"
	"fmt"
	"regexp"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/sqlengine"
)

// oracle.go runs one case. At every step — after the initial load, and
// after each update batch, which the primary applies through the
// incremental maintenance path and every target (targets.go) follows — it
// computes the expectation once: the primary's verdict on every constraint
// (BDD evaluator plus FD fast path, node budget unlimited so nothing
// degrades to SQL), held against the sqlengine.Compile violation query, and
// for a violated validity check its witness set, held against the SQL rows
// after projecting both onto the variables both bind (prenexing can fold
// deeper universals into the BDD's leading block that the SQL compiler
// leaves quantified). Then one comparison, hold, holds every target to it:
// the same verdicts, and the same witness sets wherever the primary's is
// known.

// witnessLimit bounds witness enumeration; a truncated enumeration is not
// compared (the two engines may truncate different subsets).
const witnessLimit = 10000

// RuleCoverage accumulates, across RunCase calls, the primary evaluator's
// verdict counts: how many validity verdicts the cases asked for, how many
// of them took the universal early projection rule, and the routes its
// witness calls took — the rule and the expansion of its violation sets have
// no other oracle than this harness. TestDifferentialSoak logs it.
var RuleCoverage logic.VerdictStats

// ReplicaCoverage accumulates, across RunCase calls, how the replica target
// followed its primary: Advanced counts the batches after which it moved in
// place, Rebuilt those after which a fresh replica had to be built.
// TestDifferentialSoak logs it and fails a run that exercised only one.
var ReplicaCoverage struct{ Advanced, Rebuilt int }

// ProjectionCoverage accumulates, across RunCase calls, how many of the
// primary's projection reads a projection answered that index maintenance
// had carried across at least one update batch (Maintained), and how many of
// the replica's a projection answered that it had adopted from the primary's
// export (Adopted). TestDifferentialSoak logs both and fails a run in which
// either is zero.
var ProjectionCoverage index.Reads

// GCCoverage accumulates, across the RunCase calls of cases drawn with
// DebugChecks, the collections the primary kernel ran (bdd.Stats.GCRuns).
// Under DebugChecks every safe point collects, so a Ref the checker failed
// to pin is caught at its next use; TestDifferentialSoak logs how often, and
// fails a run that drew DebugChecks but collected nothing.
var GCCoverage int

// Mismatch describes one oracle disagreement. It is a test failure in
// waiting: the shrinker minimizes the case around it and the corpus writer
// persists it.
type Mismatch struct {
	// Step is 0 for the initial load, i for the state after update batch i
	// (1-based).
	Step int
	// Constraint names the disagreeing constraint within the case.
	Constraint string
	// Kind classifies the disagreement: "verdict" and "witnesses" against
	// the SQL baseline or the replica, "<target>-verdict" and
	// "<target>-witnesses" against another target; "primary-error",
	// "sql-error", "<target>-error" or "witness-error" when one engine fails
	// outright where the others answer; "service-memo"; "panic: " and the
	// panic's first line, its numbers masked as N.
	Kind string
	// Detail is a human-readable account, including the brute-force
	// referee's verdict on who is wrong.
	Detail string
}

func (m *Mismatch) String() string {
	return fmt.Sprintf("step %d, constraint %s: %s mismatch: %s", m.Step, m.Constraint, m.Kind, m.Detail)
}

// RunCase builds the case and its targets and runs the full comparison,
// including the update path. It returns a non-nil *Mismatch if the oracles
// disagree, and a non-nil error only for hard harness failures (unparseable
// constraint, index build failure, evaluator error) — the distinction
// matters to the shrinker, which must not mistake a candidate that broke
// the harness for one that still reproduces a divergence.
func RunCase(c *Case) (mm *Mismatch, err error) {
	step := 0
	defer func() {
		// A kernel under DebugChecks panics at the first use of a Ref it no
		// longer holds: that is a divergence to shrink, not the end of a soak.
		// The kind keeps the panic's first line, numbers masked (they vary
		// by candidate), so the shrinker cannot trade one panic for another.
		if r := recover(); r != nil {
			first, _, _ := strings.Cut(fmt.Sprint(r), "\n")
			mm, err = &Mismatch{Step: step, Kind: "panic: " + regexp.MustCompile(`[0-9]+`).ReplaceAllString(first, "N"),
				Detail: fmt.Sprintf("%v\n%s", r, debug.Stack())}, nil
		}
	}()
	method, err := core.ParseOrderingMethod(c.Ordering)
	if err != nil {
		return nil, fmt.Errorf("difftest: %w", err)
	}
	cat, err := c.Build()
	if err != nil {
		return nil, err
	}
	// An empty dictionary cannot become a BDD block (fdd panics on size-0
	// domains); the generator always interns values, but shrink candidates
	// can strip a domain bare. Reject such cases as hard errors.
	for _, ts := range c.Tables {
		t := cat.Table(ts.Name)
		for i := 0; i < t.NumCols(); i++ {
			if t.ColumnDomain(i).Size() == 0 {
				return nil, fmt.Errorf("difftest: table %s column %d has an empty dictionary", ts.Name, i)
			}
		}
	}
	primary, err := buildChecker(c, cat, method)
	if err != nil {
		return nil, err
	}
	defer func() {
		vs := primary.VerdictStats()
		RuleCoverage.Validity += vs.Validity
		RuleCoverage.Projected += vs.Projected
		for r, n := range vs.Routes {
			RuleCoverage.Routes[r] += n
		}
		ProjectionCoverage.Maintained += primary.ProjectionReads().Maintained
		if c.Config.DebugChecks {
			GCCoverage += primary.Kernel().Stats().GCRuns
		}
	}()
	cts := make([]logic.Constraint, len(c.Constraints))
	for i, cs := range c.Constraints {
		f, err := logic.Parse(cs.Source)
		if err != nil {
			return nil, fmt.Errorf("difftest: parsing %s: %w", cs.Name, err)
		}
		cts[i] = logic.Constraint{Name: cs.Name, F: f}
	}
	targets, err := buildTargets(c, cts, primary, method)
	defer func() {
		for _, t := range targets {
			t.close()
		}
	}()
	if err != nil {
		return nil, err
	}
	for {
		want, mm, err := expect(primary, cts, step)
		if mm != nil || err != nil {
			return mm, err
		}
		for _, t := range targets {
			if mm, err := t.check(want, step); mm != nil || err != nil {
				return mm, err
			}
		}
		if step == len(c.Updates) {
			return nil, nil
		}
		batch := c.Updates[step]
		step++
		if _, err := primary.Apply(batch); err != nil {
			return nil, fmt.Errorf("difftest: applying batch %d: %w", step, err)
		}
		for _, t := range targets {
			// Epoch 1 is the initial load; batch i lands at epoch i+1. The
			// primary took the batch, so a target that refuses it diverges.
			if err := t.apply(uint64(step)+1, batch); errors.As(err, new(harnessError)) {
				return nil, err
			} else if err != nil {
				return &Mismatch{Step: step, Kind: t.name() + "-error", Detail: fmt.Sprintf("applying the batch: %v", err)}, nil
			}
		}
	}
}

// buildChecker indexes every table of the case on a fresh checker over cat,
// each index under its table's name (the evaluator resolves a predicate to
// the index of the same name; nil cols means every column), with the node
// budget unlimited so nothing degrades to SQL.
func buildChecker(c *Case, cat *relation.Catalog, method core.OrderingMethod) (*core.Checker, error) {
	chk := core.New(cat, core.Options{NodeBudget: -1, RandomSeed: c.Seed})
	chk.Kernel().SetDebugChecks(c.Config.DebugChecks)
	for _, ts := range c.Tables {
		if _, err := chk.BuildIndex(ts.Name, ts.Name, nil, method); err != nil {
			return nil, fmt.Errorf("difftest: building index for %s: %w", ts.Name, err)
		}
	}
	return chk, nil
}

// expectation is the primary's answer to one constraint at one step, held
// against the SQL baseline: every target must give it too. witnesses is
// set only for a violated validity check whose enumeration was not
// truncated at witnessLimit: existence checks have no per-binding
// witnesses, and truncated enumerations are not comparable.
type expectation struct {
	ct        logic.Constraint
	an        *logic.Analysis // the brute-force referee's input
	res       core.Result
	witnesses map[string]bool
}

func expect(primary *core.Checker, cts []logic.Constraint, step int) ([]expectation, *Mismatch, error) {
	want := make([]expectation, len(cts))
	for i, ct := range cts {
		// A constraint that does not analyze against the schema is a harness
		// defect (or a shrink candidate that cut a referenced table), never an
		// engine divergence: reject it as a hard error so the shrinker cannot
		// "minimize" a real bug into a dangling reference.
		an, err := logic.Analyze(ct.F, primary.Resolver())
		if err != nil {
			return nil, nil, fmt.Errorf("difftest: analyzing %s: %w", ct.Name, err)
		}
		mm := func(kind, format string, args ...interface{}) *Mismatch {
			return &Mismatch{Step: step, Constraint: ct.Name, Kind: kind, Detail: fmt.Sprintf(format, args...)}
		}
		e := expectation{ct: ct, an: an, res: primary.CheckOne(ct)}
		if e.res.Err != nil || e.res.FellBack {
			// Budget is unlimited and every table is indexed, so any failure —
			// including a silent degrade to the SQL fallback, which would make
			// this comparison SQL-vs-SQL — is an evaluator bug.
			reason := e.res.Err
			if reason == nil {
				reason = e.res.FallbackReason
			}
			return nil, mm("primary-error", "primary BDD check failed: %v; brute referee: holds=%v", reason, bruteHolds(an)), nil
		}
		q, err := sqlengine.Compile(ct, primary.Resolver())
		if err != nil {
			return nil, mm("sql-error", "SQL compile failed: %v; brute referee: holds=%v", err, bruteHolds(an)), nil
		}
		sqlViolated, sqlRows, err := q.Run()
		if err != nil {
			return nil, mm("sql-error", "SQL run failed: %v; brute referee: holds=%v", err, bruteHolds(an)), nil
		}
		if e.res.Violated != sqlViolated {
			return nil, mm("verdict", "primary(%s)=%v sql=%v; brute referee: holds=%v",
				e.res.Method, e.res.Violated, sqlViolated, bruteHolds(an)), nil
		}
		want[i] = e
		if !e.res.Violated || logic.Rewrite(an.F, logic.DefaultRewriteOptions()).Mode != logic.CheckValidity {
			continue
		}
		pw, err := primary.ViolationWitnesses(ct, witnessLimit)
		if err != nil {
			return nil, mm("witness-error", "primary witness enumeration failed: %v", err), nil
		}
		if len(pw) >= witnessLimit {
			continue
		}
		want[i].witnesses = WitnessSet(pw)
		// Project both sides onto the variables they share. Ambiguous base
		// names (two stripped variables recovering the same source name) make
		// the projection ill-defined; skip those.
		if len(pw) == 0 || sqlRows == nil {
			continue
		}
		bddVars := pw[0].Vars
		sqlVars := make([]string, len(sqlRows.Vars))
		for i, v := range sqlRows.Vars {
			sqlVars[i] = logic.BaseName(v)
		}
		if hasDup(bddVars) || hasDup(sqlVars) {
			continue
		}
		common := intersect(bddVars, sqlVars)
		bp := make(map[string]bool)
		for _, w := range pw {
			bp[projectWitness(common, w.Vars, w.Values)] = true
		}
		sp := make(map[string]bool)
		for i := 0; i < sqlRows.Len(); i++ {
			sp[projectWitness(common, sqlVars, sqlRows.Decode(i))] = true
		}
		if diff := SetDiff(bp, sp); diff != "" {
			return nil, mm("witnesses", "primary vs sql on common vars %v: %s (primary %d, sql %d rows)",
				common, diff, len(pw), sqlRows.Len()), nil
		}
	}
	return want, nil, nil
}

// hold is the one comparison between a target and the primary: got is the
// target's reply to the step's constraints, in order. It holds every verdict
// to the primary's and, wherever the primary's witness set is known, the
// target's witness set too; a nil witnesses skips that part.
func hold(name string, want []expectation, got []service.CheckResult, witnesses func(logic.Constraint) ([]core.Witness, error), step int) *Mismatch {
	for i, e := range want {
		g := got[i]
		mm := func(what, format string, args ...interface{}) *Mismatch {
			kind := name + "-" + what
			if name == "replica" && what != "error" {
				kind = what // the three-way kinds the primary and the SQL baseline share
			}
			return &Mismatch{Step: step, Constraint: e.ct.Name, Kind: kind, Detail: fmt.Sprintf(format, args...)}
		}
		if g.Error != "" || g.FellBack {
			reason := g.Error
			if reason == "" {
				reason = g.FallbackReason
			}
			return mm("error", "%s BDD check failed: %s; brute referee: holds=%v", name, reason, bruteHolds(e.an))
		}
		if g.Violated != e.res.Violated {
			return mm("verdict", "primary(%s)=%v %s(%s)=%v; brute referee: holds=%v",
				e.res.Method, e.res.Violated, name, g.Method, g.Violated, bruteHolds(e.an))
		}
		if e.witnesses == nil || witnesses == nil {
			continue
		}
		ws, err := witnesses(e.ct)
		if err != nil {
			return &Mismatch{Step: step, Constraint: e.ct.Name, Kind: "witness-error",
				Detail: fmt.Sprintf("%s witness enumeration failed: %v", name, err)}
		}
		if len(ws) >= witnessLimit {
			continue // truncated enumerations are not comparable
		}
		if diff := SetDiff(e.witnesses, WitnessSet(ws)); diff != "" {
			return mm("witnesses", "primary vs %s: %s (primary %d, %s %d)", name, diff, len(e.witnesses), name, len(ws))
		}
	}
	return nil
}

// WitnessSet canonicalizes witnesses into a set of "var=val,…" keys,
// order-independent on both the witness list and the variable order. Other
// suites (the durability round-trip property test) reuse it to compare
// witness sets across checkers.
func WitnessSet(ws []core.Witness) map[string]bool {
	out := make(map[string]bool, len(ws))
	for _, w := range ws {
		out[projectWitness(w.Vars, w.Vars, w.Values)] = true
	}
	return out
}

// projectWitness renders the binding restricted to keep, sorted by variable
// name so keys are order-independent.
func projectWitness(keep, vars, vals []string) string {
	parts := make([]string, 0, len(keep))
	for _, k := range keep {
		for i, v := range vars {
			if v == k {
				parts = append(parts, k+"="+vals[i])
				break
			}
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// SetDiff describes the first few asymmetric elements of two WitnessSet
// results, or "" when they are equal.
func SetDiff(a, b map[string]bool) string {
	var onlyA, onlyB []string
	for k := range a {
		if !b[k] {
			onlyA = append(onlyA, k)
		}
	}
	for k := range b {
		if !a[k] {
			onlyB = append(onlyB, k)
		}
	}
	if len(onlyA) == 0 && len(onlyB) == 0 {
		return ""
	}
	sort.Strings(onlyA)
	sort.Strings(onlyB)
	const maxShow = 5
	if len(onlyA) > maxShow {
		onlyA = append(onlyA[:maxShow], "…")
	}
	if len(onlyB) > maxShow {
		onlyB = append(onlyB[:maxShow], "…")
	}
	return fmt.Sprintf("only in first: %v; only in second: %v", onlyA, onlyB)
}

func hasDup(ss []string) bool {
	seen := make(map[string]bool, len(ss))
	for _, s := range ss {
		if seen[s] {
			return true
		}
		seen[s] = true
	}
	return false
}

func intersect(a, b []string) []string {
	inB := make(map[string]bool, len(b))
	for _, s := range b {
		inB[s] = true
	}
	var out []string
	for _, s := range a {
		if inB[s] {
			out = append(out, s)
		}
	}
	return out
}
