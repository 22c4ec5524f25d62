// decompose.go classifies each constraint for sharded evaluation. The
// decomposition question: when every shard evaluates the constraint against
// only the rows it owns, do the per-shard verdicts compose into the global
// one? Three answers:
//
//   - PlanLocal: yes. The constraint's relevant condition (its violation
//     condition in validity mode, its satisfaction condition in existence
//     mode) is anchored on one variable that ranges over the partition key
//     and is guarded: every way of making the condition true passes through
//     a positive occurrence of a partitioned predicate carrying the anchor.
//     A binding that makes the condition true therefore materializes only on
//     the shard owning its anchor value, so validity-mode verdicts OR
//     together with witness sets unioning exactly, and existence-mode
//     verdicts AND together.
//
//   - PlanSingleShard: the constraint pins the key by constants that all
//     hash to one shard, or touches only broadcast tables (identical on
//     every shard); one shard's verdict is the global verdict.
//
//   - PlanResidual: anything else. The coordinator evaluates the constraint
//     against its residual server's full-catalog checker; constraints it
//     has no index for fall through core's usual sqlengine fallback.
//
// Guardedness is what makes the merge sound. Consider T partitioned on a
// with the constraint "forall a, b: U(a) => T(a, b)" (U broadcast): the
// violation condition is U(a) and not T(a, b), and "not T" is true on every
// shard that does not own a — a naive union would report spurious
// violations from non-owners. The condition is rejected here because its
// only route to truth through T is negative.
package shard

import (
	"fmt"

	"repro/internal/logic"
)

// PlanKind says how the coordinator evaluates a constraint.
type PlanKind int

const (
	// PlanLocal fans the constraint out to every shard and merges verdicts.
	PlanLocal PlanKind = iota
	// PlanSingleShard evaluates on one shard and adopts its verdict.
	PlanSingleShard
	// PlanResidual evaluates on the coordinator's full-catalog checker.
	PlanResidual
)

func (k PlanKind) String() string {
	switch k {
	case PlanLocal:
		return "local"
	case PlanSingleShard:
		return "single-shard"
	default:
		return "residual"
	}
}

// Plan is one constraint's sharded evaluation strategy.
type Plan struct {
	Kind PlanKind
	// Mode is the constraint's check mode; it selects the merge rule for
	// PlanLocal (validity: verdicts OR, witnesses union; existence:
	// verdicts AND, no witnesses).
	Mode logic.CheckMode
	// Shard is the PlanSingleShard target.
	Shard int
	// Anchor is the PlanLocal anchor variable (base name), for diagnostics.
	Anchor string
	// Reason explains the classification, for /statsz.
	Reason string
}

func (p Plan) String() string {
	switch p.Kind {
	case PlanLocal:
		return fmt.Sprintf("local(anchor=%s, %s)", p.Anchor, modeName(p.Mode))
	case PlanSingleShard:
		return fmt.Sprintf("single-shard(%d: %s)", p.Shard, p.Reason)
	default:
		return "residual(" + p.Reason + ")"
	}
}

func modeName(m logic.CheckMode) string {
	if m == logic.CheckSatisfiability {
		return "existence"
	}
	return "validity"
}

func residual(reason string) Plan { return Plan{Kind: PlanResidual, Reason: reason} }

// Decompose classifies one constraint against the partitioner's key. The
// resolver decides predicate bindings; it must agree with the workers'
// resolvers, which it does as long as shards index whole tables under the
// table's own name (how the coordinator builds them).
func (p *Partitioner) Decompose(ct logic.Constraint, res logic.Resolver) Plan {
	an, err := logic.Analyze(ct.F, res)
	if err != nil {
		// The residual checker will surface the same analysis error at
		// evaluation time, matching the single-kernel server's behavior.
		return residual("analysis failed: " + err.Error())
	}

	// Collect the key-position term of every occurrence of a partitioned
	// predicate. Predicates over broadcast tables do not constrain routing.
	type occ struct{ term logic.Term }
	var occs []occ
	ok := true
	var reason string
	var walk func(f logic.Formula)
	walk = func(f logic.Formula) {
		if !ok {
			return
		}
		switch g := f.(type) {
		case logic.Pred:
			b := an.Preds[g.Table]
			pc := p.PartitionColumn(b.Table)
			if pc < 0 {
				return
			}
			arg := -1
			for j, col := range b.Cols {
				if col == pc {
					arg = j
					break
				}
			}
			if arg < 0 {
				ok, reason = false, fmt.Sprintf("predicate %s omits the shard key column", g.Table)
				return
			}
			occs = append(occs, occ{term: g.Args[arg]})
		case logic.Not:
			walk(g.F)
		case logic.And:
			walk(g.L)
			walk(g.R)
		case logic.Or:
			walk(g.L)
			walk(g.R)
		case logic.Implies:
			walk(g.L)
			walk(g.R)
		case logic.Quant:
			walk(g.F)
		}
	}
	walk(an.F)
	if !ok {
		return residual(reason)
	}

	rw := logic.Rewrite(an.F, logic.DefaultRewriteOptions())

	if len(occs) == 0 {
		// Broadcast tables are identical everywhere: any shard's verdict is
		// the global one. Shard 0 by convention.
		return Plan{Kind: PlanSingleShard, Mode: rw.Mode, Shard: 0, Reason: "touches no partitioned table"}
	}

	// All key positions pinned by constants: the whole constraint lives on
	// the shards those constants hash to — one shard if they agree.
	consts := 0
	anchor := ""
	for _, o := range occs {
		switch t := o.term.(type) {
		case logic.Const:
			consts++
		case logic.Var:
			if anchor == "" {
				anchor = t.Name
			} else if anchor != t.Name {
				return residual(fmt.Sprintf("partitioned predicates keyed by distinct variables %s and %s", anchor, t.Name))
			}
		}
	}
	if consts == len(occs) {
		target := p.ShardOf(constVal(occs[0].term))
		for _, o := range occs[1:] {
			if p.ShardOf(constVal(o.term)) != target {
				return residual("constant keys pin different shards")
			}
		}
		return Plan{Kind: PlanSingleShard, Mode: rw.Mode, Shard: target, Reason: "constant key"}
	}
	if consts > 0 {
		return residual("mix of constant and variable shard keys")
	}

	// One anchor variable. It must have a single binding site (Analyze
	// conflates same-named variables from different scopes, and two sites
	// would leave ownership ambiguous) ...
	if bindingSites(an.F, anchor) != 1 {
		return residual(fmt.Sprintf("anchor %s is bound at more than one quantifier", anchor))
	}
	// ... and sit in the leading quantifier block, so each shard quantifies
	// it over the bindings it owns rather than under an inner quantifier
	// whose semantics would span shards.
	inLeading := false
	for _, v := range rw.Stripped {
		if logic.BaseName(v) == anchor {
			inLeading = true
			break
		}
	}
	if !inLeading {
		return residual(fmt.Sprintf("anchor %s is not in the leading quantifier block", anchor))
	}

	// Guardedness of the relevant condition: the violation condition for
	// validity mode, the satisfaction condition for existence mode.
	cond := an.F
	if rw.Mode == logic.CheckValidity {
		cond = logic.Not{F: an.F}
	}
	if !guarded(logic.NNF(logic.ElimImplies(cond)), an, p) {
		return residual(fmt.Sprintf("%s condition not guarded by a positive partitioned predicate", modeName(rw.Mode)))
	}
	return Plan{Kind: PlanLocal, Mode: rw.Mode, Anchor: anchor}
}

func constVal(t logic.Term) string {
	c, _ := t.(logic.Const)
	return c.Value
}

// bindingSites counts the quantifiers binding name anywhere in f.
func bindingSites(f logic.Formula, name string) int {
	switch g := f.(type) {
	case logic.Not:
		return bindingSites(g.F, name)
	case logic.And:
		return bindingSites(g.L, name) + bindingSites(g.R, name)
	case logic.Or:
		return bindingSites(g.L, name) + bindingSites(g.R, name)
	case logic.Implies:
		return bindingSites(g.L, name) + bindingSites(g.R, name)
	case logic.Quant:
		n := bindingSites(g.F, name)
		for _, v := range g.Vars {
			if v == name {
				n++
			}
		}
		return n
	default:
		return 0
	}
}

// guarded reports whether every way of making the NNF formula f true passes
// through a positive occurrence of a partitioned predicate. On the shard
// owning a binding's anchor value such an atom means the supporting tuples
// are present locally; on every other shard the atom is false, killing the
// whole conjunct — which is exactly what makes OR/AND merging exact.
func guarded(f logic.Formula, an *logic.Analysis, p *Partitioner) bool {
	switch g := f.(type) {
	case logic.Pred:
		return p.PartitionColumn(an.Preds[g.Table].Table) >= 0
	case logic.And:
		return guarded(g.L, an, p) || guarded(g.R, an, p)
	case logic.Or:
		return guarded(g.L, an, p) && guarded(g.R, an, p)
	case logic.Quant:
		return guarded(g.F, an, p)
	default:
		// Negated atoms, comparisons, In, Truth: none pin a shard.
		return false
	}
}
