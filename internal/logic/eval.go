package logic

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/bdd"
	"repro/internal/fdd"
	"repro/internal/index"
)

// eval.go checks rewritten constraints against BDD logical indices. Every
// constraint variable receives a scratch finite-domain block; predicate
// occurrences are evaluated by restricting the index BDD with the constant
// arguments and renaming the remaining canonical blocks onto the variable
// blocks (the §4.2 rename strategy). Conjunction then performs joins, and
// quantifiers evaluate through AppEx/AppAll when they sit directly above a
// binary connective (§4.3).

// ErrNoIndex reports that a predicate has no usable logical index; the
// caller is expected to validate the constraint with SQL instead.
var ErrNoIndex = errors.New("logic: no logical index for predicate")

// Evaluator checks constraints against the indices of a Store. It has one
// strategy, the one the paper settles on: the full §4.4 rewrite, variables
// on the indices' own blocks where they can take them (largest tables
// first), §4.2 rename binding, AppEx/AppAll for quantified connectives
// (§4.3), and early projection of single-occurrence variables at their
// atom. The paper measures the alternatives only as the Figure 6
// ablations, which internal/experiments runs on the kernel directly.
type Evaluator struct {
	store *index.Store
	res   Resolver

	scratch     map[scratchKey][]*fdd.Domain
	replaceMaps map[string]bdd.ReplaceMap
	// predCache memoizes fully bound predicate BDDs across evaluations,
	// invalidated by table version. Re-validating a constraint set after a
	// batch of updates (the monitoring workload) then skips the
	// restrict/rename work for unchanged tables. A binding that is the index's
	// root or one of its maintained projections (index.Index.Projection) is
	// not cached: the index pins it and keeps it current across updates.
	predCache map[string]predCacheEntry
	// predOrder lists predCache's keys oldest first, for eviction, and
	// predVersion records per predicate name the table version its entries
	// were bound at. Every entry pins a BDD, so both bounds matter to a
	// long-lived evaluator: entries of a moved table can never hit again,
	// and ad-hoc constraints bring constants that never recur.
	predOrder   []string
	predVersion map[string]uint64
	stats       VerdictStats
}

// maxPredCache bounds predCache. It is sized for registries of a few
// thousand constraints re-checked in full (each contributes its verdict and
// its witness form); past it the oldest entry goes first.
const maxPredCache = 4096

// VerdictStats counts an evaluator's Holds and Violations calls, so a test
// suite can see how much of its traffic exercises the universal early
// projection rule and the witness expansion built on it.
type VerdictStats struct {
	// Validity counts the Holds calls decided as validity checks (a leading
	// ∀-block was stripped); Projected those among them in which the rule
	// projected at least one variable.
	Validity, Projected int
	// Routes counts the Violations calls by the route they took.
	Routes [NumRoutes]int
}

// VerdictStats returns the counts of Holds and Violations calls so far.
func (ev *Evaluator) VerdictStats() VerdictStats { return ev.stats }

// Route names the way Violations arrived at a violation set.
type Route int

const (
	// RouteHolds: the verdict pass found no violation; nothing else ran.
	RouteHolds Route = iota
	// RouteUnprojected: the verdict pass projected no variable, so its
	// violation set already binds every stripped variable.
	RouteUnprojected
	// RouteExpanded: the verdict pass's violation set, joined back to the
	// negated atoms its projected variables came from.
	RouteExpanded
	// RouteFull: a shape outside the expansion rule, or an existence check,
	// evaluated in full as Eval evaluates it.
	RouteFull
	// NumRoutes is the number of routes.
	NumRoutes
)

func (r Route) String() string {
	return [...]string{"holds", "unprojected", "expanded", "full"}[r]
}

type predCacheEntry struct {
	pred string // the predicate name, predVersion's key
	ref  bdd.Ref
}

type scratchKey struct {
	domain string
	bits   int
}

// NewEvaluator creates an evaluator using the given index store and
// predicate resolver.
func NewEvaluator(store *index.Store, res Resolver) *Evaluator {
	return &Evaluator{
		store:       store,
		res:         res,
		scratch:     make(map[scratchKey][]*fdd.Domain),
		replaceMaps: make(map[string]bdd.ReplaceMap),
		predCache:   make(map[string]predCacheEntry),
		predVersion: make(map[string]uint64),
	}
}

// Outcome is the result of evaluating one constraint with BDDs.
type Outcome struct {
	// Holds reports whether the constraint is satisfied by the database.
	Holds bool
	// Mode is the check that decided Holds (validity or satisfiability).
	Mode CheckMode
	// Stripped lists the variables of the dropped leading quantifier, and
	// Blocks maps them (and all other variables) to their blocks.
	Stripped []string
	Blocks   map[string]*fdd.Domain
	// Violations, set for CheckValidity outcomes, is the BDD whose
	// satisfying assignments are exactly the in-domain bindings of the
	// stripped variables that violate the constraint.
	Violations bdd.Ref
}

// Eval analyzes, rewrites and evaluates a constraint. It returns ErrNoIndex
// if a predicate lacks an index, or bdd.ErrBudget if evaluation exceeded the
// node budget; in both cases the caller should fall back to SQL processing
// (the kernel's error state is already cleared).
func (ev *Evaluator) Eval(c Constraint) (*Outcome, error) {
	an, rw, err := ev.compile(c)
	if err != nil {
		return nil, err
	}
	out, _, err := ev.evaluate(an, rw, false)
	return out, err
}

// Holds decides a constraint like Eval, with the same errors, for callers
// that read nothing but the verdict. Not having to bind every stripped
// variable — a violation witness must, a verdict need not — lets a validity
// check project the ∀-variables it uses once out of their predicate (see
// markUniversal) instead of carrying every column of the index through the
// negation and the final guard.
func (ev *Evaluator) Holds(c Constraint) (bool, error) {
	an, rw, err := ev.compile(c)
	if err != nil {
		return false, err
	}
	out, env, err := ev.evaluate(an, rw, true)
	if err != nil {
		return false, err
	}
	if rw.Mode == CheckValidity {
		ev.stats.Validity++
		if len(env.universal) > 0 {
			ev.stats.Projected++
		}
	}
	return out.Holds, nil
}

// Violations evaluates a constraint for its violation set, with Eval's
// errors and an Outcome whose Violations binds every stripped variable, as
// Eval's does. It starts from the verdict pass Holds runs, universal early
// projection included, whose violation set V binds the stripped variables
// that were not projected, and goes on by the shape of the rewritten body:
//
//   - V is empty: the constraint holds and nothing else runs;
//   - nothing was projected: V is the violation set;
//   - every projected variable sits in a negated atom that is a top-level
//     disjunct of the body, reached from the root through ∨ only: the set is
//     V ∧ P₁ ∧ … ∧ Pₙ, the Pᵢ being those atoms bound in full. A body
//     B ≡ ¬P(x̄,ȳ) ∨ ψ(ȳ) has ¬B ≡ P ∧ ¬ψ and V ≡ ∃x̄ (P ∧ ¬ψ), so
//     ¬B ≡ P ∧ V; P holds in-domain codes only, so x̄ needs no guard; the x̄ᵢ
//     of several such disjuncts are disjoint, so ∃ distributes over them;
//   - any other shape, and an existence check, is evaluated in full.
//
// The expansion is a semi-join of the small set V with the index it was
// projected from, where the full evaluation negates and disjoins every
// column of the index.
func (ev *Evaluator) Violations(c Constraint) (*Outcome, error) {
	an, rw, err := ev.compile(c)
	if err != nil {
		return nil, err
	}
	out, env, err := ev.evaluate(an, rw, true)
	if err != nil {
		return nil, err
	}
	route := RouteFull // outside a validity check nothing is projected, so the verdict pass was the full one
	switch {
	case rw.Mode != CheckValidity:
	case out.Holds:
		route = RouteHolds
	case len(env.universal) == 0:
		route = RouteUnprojected
	case !env.conjunctAtom:
		route = RouteExpanded
		err = ev.expand(out, env)
	default:
		out, _, err = ev.evaluate(an, rw, false)
	}
	if err != nil {
		return nil, err
	}
	ev.stats.Routes[route]++
	return out, nil
}

// expand joins the verdict pass's violation set back to the negated atoms
// its projected variables came from (see Violations). The atoms are bound on
// an extension of the verdict pass's own environment: a fresh one could give
// the named variables other blocks, and a conjunction over different blocks
// is a product, not a join.
func (ev *Evaluator) expand(out *Outcome, env *evalEnv) error {
	k := ev.store.Kernel()
	ext := ev.bindProjected(env)
	viol := out.Violations
	for _, p := range env.projectedAtoms {
		f, err := ev.evalPred(p, ext, true)
		if err == nil {
			if viol = k.And(viol, f); viol == bdd.Invalid {
				err = ev.kerr()
			}
		}
		if err != nil {
			ev.Recover()
			return err
		}
	}
	out.Violations, out.Blocks = viol, ext.blocks
	return nil
}

// bindProjected extends env so that the variables the verdict pass
// projected have blocks too: each takes its atom's canonical block when no
// variable holds it, else the first scratch block of its domain that none
// holds. The extension projects nothing, so an atom bound on it binds every
// argument.
func (ev *Evaluator) bindProjected(env *evalEnv) *evalEnv {
	ext := *env
	ext.universal = nil
	ext.blocks = make(map[string]*fdd.Domain, len(env.blocks)+len(env.universal))
	held := make(map[*fdd.Domain]bool, len(env.blocks)+len(env.universal))
	for v, b := range env.blocks {
		ext.blocks[v] = b
		held[b] = true
	}
	for _, p := range env.projectedAtoms {
		doms := ev.store.Index(p.Table).Domains()
		for i, arg := range p.Args {
			v, ok := arg.(Var)
			if !ok || !env.universal[v.Name] {
				continue
			}
			rd := env.an.Domain(v.Name)
			key := scratchKey{domain: rd.Name(), bits: bitsFor(rd.Size())}
			b := doms[i]
			if held[b] || b.Bits() != key.bits {
				j := 0
				for j < len(ev.scratch[key]) && held[ev.scratch[key][j]] {
					j++
				}
				b = ev.scratchBlock(key, j)
			}
			ext.blocks[v.Name] = b
			held[b] = true
		}
	}
	return &ext
}

// compile analyzes and rewrites a constraint.
func (ev *Evaluator) compile(c Constraint) (*Analysis, Rewritten, error) {
	an, err := Analyze(c.F, ev.res)
	if err != nil {
		return nil, Rewritten{}, err
	}
	return an, Rewrite(an.F, DefaultRewriteOptions()), nil
}

// evaluate runs one evaluation pass and returns its outcome and environment.
// No kernel operation collects, so intermediates held in local variables
// need no pinning; the outcome's Refs stay valid until the kernel's owner
// reaches a safe point.
func (ev *Evaluator) evaluate(an *Analysis, rw Rewritten, verdictOnly bool) (*Outcome, *evalEnv, error) {
	env, err := ev.newEnv(an, rw, verdictOnly)
	if err != nil {
		return nil, nil, err
	}
	k := ev.store.Kernel()
	root, err := ev.eval(rw.Body, env, false)
	if err != nil {
		ev.Recover()
		return nil, nil, err
	}
	out := &Outcome{
		Mode:     rw.Mode,
		Stripped: rw.Stripped,
		Blocks:   env.blocks,
	}
	// The stripped leading quantifiers range over the finite domains, not
	// over all bit patterns of the blocks, so the final test is relativized
	// with the domain guard of the stripped variables — those still free in
	// root, that is: one projected at its atom was quantified there.
	var guarded []string
	for _, v := range rw.Stripped {
		if !env.universal[v] {
			guarded = append(guarded, v)
		}
	}
	guard, err := ev.domGuard(env, guarded)
	if err != nil {
		ev.Recover()
		return nil, nil, err
	}
	if rw.Mode == CheckValidity {
		viol := k.Diff(guard, root)
		if viol == bdd.Invalid {
			err := ev.kerr()
			ev.Recover()
			return nil, nil, err
		}
		out.Violations = viol
		out.Holds = viol == bdd.False
	} else {
		wit := k.And(guard, root)
		if wit == bdd.Invalid {
			err := ev.kerr()
			ev.Recover()
			return nil, nil, err
		}
		out.Holds = wit != bdd.False
	}
	return out, env, nil
}

// Recover clears a sticky kernel error and collects the garbage the aborted
// evaluation left behind, so the store stays usable for the SQL fallback
// path and for later constraints.
func (ev *Evaluator) Recover() {
	k := ev.store.Kernel()
	if k.Err() != nil {
		k.ClearErr()
	}
	k.GC()
}

// evalEnv carries the per-evaluation state.
type evalEnv struct {
	an *Analysis
	// blocks assigns every variable of the rewritten body a block, except
	// the universal ones below, which need none.
	blocks map[string]*fdd.Domain
	// occurrences counts free+pred occurrences of each variable in the body.
	occurrences map[string]int
	// projectable marks existentially bound variables whose path from
	// binder to atom crosses only ∧/∨ connectives. Only those may be
	// projected out at the predicate: pushing ∃y past a Not flips its
	// meaning, and past another quantifier swaps quantifier order.
	projectable map[string]bool
	// universal holds the stripped ∀-variables a verdict-only validity check
	// projects out at their negated atom (see markUniversal); nil otherwise.
	universal map[string]bool
	// projectedAtoms lists the negated atoms universal's variables occur in,
	// and conjunctAtom reports whether the path to one of them crossed an ∧:
	// Violations can expand the verdict's violation set only when none did.
	projectedAtoms []Pred
	conjunctAtom   bool
}

// projects reports whether the early projection rule removes variable v at
// an atom of the given polarity instead of binding it to a block: the
// existential rule applies at positive atoms only, its universal dual at
// negated ones only.
func (ev *Evaluator) projects(env *evalEnv, v string, negated bool) bool {
	if negated {
		return env.universal[v]
	}
	return env.occurrences[v] == 1 && env.projectable[v]
}

// newEnv walks the rewritten body, assigns a scratch block to every
// variable, and gathers the occurrence/binder information the early
// projection rule needs. Blocks for the variables of each predicate are
// assigned in the canonical (index block) order of first use, which keeps
// the rename in order in the common case: Replace then interns every node in
// one pass and rebuilds none as an ITE.
func (ev *Evaluator) newEnv(an *Analysis, rw Rewritten, verdictOnly bool) (*evalEnv, error) {
	env := &evalEnv{
		an:          an,
		blocks:      make(map[string]*fdd.Domain),
		occurrences: make(map[string]int),
		projectable: make(map[string]bool),
	}
	markProjectable(rw.Body, nil, env.projectable)
	collectEnvInfo(rw.Body, env)
	if verdictOnly && rw.Mode == CheckValidity && len(rw.Stripped) > 0 {
		env.universal = make(map[string]bool)
		free := make(map[string]bool, len(rw.Stripped))
		for _, v := range rw.Stripped {
			free[v] = true
		}
		markUniversal(rw.Body, free, env, false)
	}
	ev.claimIndexBlocks(rw.Body, env)
	counters := make(map[scratchKey]int)
	assign := func(v string) error {
		if _, done := env.blocks[v]; done || env.universal[v] {
			return nil
		}
		rd := an.Domain(v)
		if rd == nil {
			return fmt.Errorf("logic: variable %s has no domain", v)
		}
		key := scratchKey{domain: rd.Name(), bits: bitsFor(rd.Size())}
		env.blocks[v] = ev.scratchBlock(key, counters[key])
		counters[key]++
		return nil
	}
	var firstErr error
	record := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	var walk func(Formula)
	walk = func(f Formula) {
		switch g := f.(type) {
		case Pred:
			// Assign this predicate's variables in canonical block order.
			type argPos struct {
				name  string
				level int
			}
			var args []argPos
			ix := ev.store.Index(g.Table)
			for i, a := range g.Args {
				if v, ok := a.(Var); ok {
					level := i
					if ix != nil && i < len(ix.Domains()) {
						level = ix.Domains()[i].Vars()[0]
					}
					args = append(args, argPos{name: v.Name, level: level})
				}
			}
			sort.Slice(args, func(i, j int) bool { return args[i].level < args[j].level })
			for _, a := range args {
				record(assign(a.name))
			}
		case Eq:
			walkCompare(g.L, g.R, assign, record)
		case Neq:
			walkCompare(g.L, g.R, assign, record)
		case In:
			walkCompare(g.T, nil, assign, record)
		case Not:
			walk(g.F)
		case And:
			walk(g.L)
			walk(g.R)
		case Or:
			walk(g.L)
			walk(g.R)
		case Quant:
			for _, v := range g.Vars {
				record(assign(v))
			}
			walk(g.F)
		case Truth:
		case Implies:
			walk(g.L)
			walk(g.R)
		}
	}
	// The walk assigns blocks in canonical (index layout) order per
	// predicate, which keeps renames in order; stripped variables occur
	// in the body and are assigned there. Any leftovers (defensive) get
	// blocks afterwards.
	walk(rw.Body)
	for _, v := range rw.Stripped {
		record(assign(v))
	}
	return env, firstErr
}

// scratchBlock returns the i-th scratch block of key, allocating it when the
// pool holds exactly i.
func (ev *Evaluator) scratchBlock(key scratchKey, i int) *fdd.Domain {
	pool := ev.scratch[key]
	if i == len(pool) {
		name := fmt.Sprintf("$%s/%d#%d", key.domain, key.bits, i)
		pool = append(pool, ev.store.Space().NewDomain(name, 1<<key.bits))
		ev.scratch[key] = pool
	}
	return pool[i]
}

// markProjectable records which variables reach a predicate from their
// existential binder through ∧/∨ only. candidates is the set of variables
// whose binder is directly above on such a path; Not and Quant nodes reset
// it (they are barriers an ∃ cannot be pushed through).
func markProjectable(f Formula, candidates map[string]bool, out map[string]bool) {
	switch g := f.(type) {
	case Pred:
		for _, a := range g.Args {
			if v, ok := a.(Var); ok && candidates[v.Name] {
				out[v.Name] = true
			}
		}
	case Not:
		markProjectable(g.F, nil, out)
	case And:
		markProjectable(g.L, candidates, out)
		markProjectable(g.R, candidates, out)
	case Or:
		markProjectable(g.L, candidates, out)
		markProjectable(g.R, candidates, out)
	case Implies:
		markProjectable(g.L, nil, out)
		markProjectable(g.R, nil, out)
	case Quant:
		var inner map[string]bool
		if !g.All {
			// ∃ commutes with ∃: outer candidates survive an existential
			// binder, and this binder's own variables join them.
			inner = make(map[string]bool, len(candidates)+len(g.Vars))
			for v := range candidates {
				inner[v] = true
			}
			for _, v := range g.Vars {
				inner[v] = true
			}
		}
		markProjectable(g.F, inner, out)
	}
}

// markUniversal is the universal dual of markProjectable, for evaluations
// that only decide validity. free is the stripped leading ∀-block. A free
// variable x that occurs exactly once in the body, as an argument of a
// negated atom ¬P(x,ȳ) reached from the root through ∧/∨ only, can be
// quantified at that atom:
//
//	∀x (¬P(x,ȳ) ∨ φ(ȳ)) ≡ ¬∃x P(x,ȳ) ∨ φ(ȳ)
//
// ∀ distributes over ∧, and over an ∨ whose other operand does not mention
// x; the stripped ∀s commute among themselves, so several variables of one
// atom go together; P holds in-domain codes only, so ∃ over the block is ∃
// over the domain. Any Quant on the path is a barrier (∀x does not cross an
// ∃, and the body's own quantifiers are evaluated as they stand). Crossing
// an ∧ turns ∀x ψ(ȳ) into ψ(ȳ) for the operand without x, which is only
// sound over a non-empty domain: a variable with an empty domain keeps the
// full evaluation and its vacuous verdict. A variable repeated within the
// atom or also compared elsewhere has two occurrences and stays; positive
// atoms are the existential rule's business. crossedAnd reports whether the
// path from the root to f crossed an ∧; the atoms that received a variable,
// and whether any of them sat below an ∧, are recorded for Violations.
func markUniversal(f Formula, free map[string]bool, env *evalEnv, crossedAnd bool) {
	switch g := f.(type) {
	case Not:
		p, ok := g.F.(Pred)
		if !ok {
			return
		}
		marked := false
		for _, a := range p.Args {
			v, ok := a.(Var)
			if !ok || !free[v.Name] || env.occurrences[v.Name] != 1 {
				continue
			}
			if d := env.an.Domain(v.Name); d != nil && d.Size() > 0 {
				env.universal[v.Name] = true
				marked = true
			}
		}
		if marked {
			env.projectedAtoms = append(env.projectedAtoms, p)
			env.conjunctAtom = env.conjunctAtom || crossedAnd
		}
	case And:
		markUniversal(g.L, free, env, true)
		markUniversal(g.R, free, env, true)
	case Or:
		markUniversal(g.L, free, env, crossedAnd)
		markUniversal(g.R, free, env, crossedAnd)
	}
}

func walkCompare(l, r Term, assign func(string) error, record func(error)) {
	for _, t := range []Term{l, r} {
		if v, ok := t.(Var); ok {
			record(assign(v.Name))
		}
	}
}

// collectEnvInfo counts variable occurrences (in predicates and
// comparisons) and records binder kinds, before any block assignment.
func collectEnvInfo(f Formula, env *evalEnv) {
	countTerm := func(t Term) {
		if v, ok := t.(Var); ok {
			env.occurrences[v.Name]++
		}
	}
	switch g := f.(type) {
	case Pred:
		for _, a := range g.Args {
			countTerm(a)
		}
	case Eq:
		countTerm(g.L)
		countTerm(g.R)
	case Neq:
		countTerm(g.L)
		countTerm(g.R)
	case In:
		countTerm(g.T)
	case Not:
		collectEnvInfo(g.F, env)
	case And:
		collectEnvInfo(g.L, env)
		collectEnvInfo(g.R, env)
	case Or:
		collectEnvInfo(g.L, env)
		collectEnvInfo(g.R, env)
	case Implies:
		collectEnvInfo(g.L, env)
		collectEnvInfo(g.R, env)
	case Quant:
		collectEnvInfo(g.F, env)
	}
}

// claimIndexBlocks assigns variables the canonical blocks of the
// indices they scan, biggest tables first, so that the largest predicate
// BDDs are used in place with no renaming. A canonical block is claimable
// by the first variable to ask for it, provided the variable is not going
// to be projected away at the predicate and the block width matches the
// variable's current domain.
func (ev *Evaluator) claimIndexBlocks(body Formula, env *evalEnv) {
	type occ struct {
		p      Pred
		ix     *index.Index
		weight int
	}
	var occs []occ
	var walk func(Formula)
	walk = func(f Formula) {
		switch g := f.(type) {
		case Pred:
			if ix := ev.store.Index(g.Table); ix != nil {
				occs = append(occs, occ{p: g, ix: ix, weight: ix.Table().Len()})
			}
		case Not:
			walk(g.F)
		case And:
			walk(g.L)
			walk(g.R)
		case Or:
			walk(g.L)
			walk(g.R)
		case Implies:
			walk(g.L)
			walk(g.R)
		case Quant:
			walk(g.F)
		}
	}
	walk(body)
	sort.SliceStable(occs, func(i, j int) bool { return occs[i].weight > occs[j].weight })
	claimed := make(map[*fdd.Domain]bool)
	for _, o := range occs {
		doms := o.ix.Domains()
		if len(doms) != len(o.p.Args) {
			continue
		}
		seen := make(map[string]bool, len(o.p.Args))
		for i, arg := range o.p.Args {
			v, ok := arg.(Var)
			if !ok || seen[v.Name] {
				continue
			}
			seen[v.Name] = true
			if _, done := env.blocks[v.Name]; done {
				continue
			}
			// This walk does not track polarity, and need not: a variable
			// either rule projects has this one occurrence.
			if ev.projects(env, v.Name, false) || ev.projects(env, v.Name, true) {
				continue // will be projected at the predicate instead
			}
			b := doms[i]
			if claimed[b] {
				continue
			}
			rd := env.an.Domain(v.Name)
			if rd == nil || b.Bits() != bitsFor(rd.Size()) {
				continue
			}
			env.blocks[v.Name] = b
			claimed[b] = true
		}
	}
}

func bitsFor(size int) int {
	if size <= 1 {
		return 1
	}
	b := 0
	for 1<<b < size {
		b++
	}
	return b
}

// kerr converts a kernel Invalid result into a Go error.
func (ev *Evaluator) kerr() error {
	if err := ev.store.Kernel().Err(); err != nil {
		return err
	}
	return errors.New("logic: kernel returned Invalid without an error")
}

// eval computes the BDD of f. negated reports whether f occurs under a Not
// (only atoms can, after NNF); it gates the early projection rule.
func (ev *Evaluator) eval(f Formula, env *evalEnv, negated bool) (bdd.Ref, error) {
	k := ev.store.Kernel()
	switch g := f.(type) {
	case Truth:
		if g.Value {
			return bdd.True, nil
		}
		return bdd.False, nil
	case Pred:
		return ev.evalPred(g, env, negated)
	case Eq:
		return ev.evalEq(g.L, g.R, env)
	case Neq:
		r, err := ev.evalEq(g.L, g.R, env)
		if err != nil {
			return bdd.Invalid, err
		}
		if n := k.Not(r); n != bdd.Invalid {
			return n, nil
		}
		return bdd.Invalid, ev.kerr()
	case In:
		v := g.T.(Var)
		block := env.blocks[v.Name]
		rd := env.an.Domain(v.Name)
		var codes []int
		for _, val := range g.Values {
			if c, ok := rd.Code(val); ok {
				codes = append(codes, int(c))
			}
		}
		if r := block.Among(codes); r != bdd.Invalid {
			return r, nil
		}
		return bdd.Invalid, ev.kerr()
	case Not:
		inner, err := ev.eval(g.F, env, !negated)
		if err != nil {
			return bdd.Invalid, err
		}
		if r := k.Not(inner); r != bdd.Invalid {
			return r, nil
		}
		return bdd.Invalid, ev.kerr()
	case And:
		l, err := ev.eval(g.L, env, negated)
		if err != nil {
			return bdd.Invalid, err
		}
		if l == bdd.False {
			return bdd.False, nil
		}
		r, err := ev.eval(g.R, env, negated)
		if err != nil {
			return bdd.Invalid, err
		}
		if res := k.And(l, r); res != bdd.Invalid {
			return res, nil
		}
		return bdd.Invalid, ev.kerr()
	case Or:
		l, err := ev.eval(g.L, env, negated)
		if err != nil {
			return bdd.Invalid, err
		}
		if l == bdd.True {
			return bdd.True, nil
		}
		r, err := ev.eval(g.R, env, negated)
		if err != nil {
			return bdd.Invalid, err
		}
		if res := k.Or(l, r); res != bdd.Invalid {
			return res, nil
		}
		return bdd.Invalid, ev.kerr()
	case Quant:
		return ev.evalQuant(g, env, negated)
	default:
		return bdd.Invalid, fmt.Errorf("logic: cannot evaluate %T", f)
	}
}

// domGuard returns the conjunction of the domain predicates of the blocks
// of the given variables: block < |dom(v)| for each. Quantification must be
// relativized with it — the blocks have 2^bits slots but only the first
// |dom(v)| encode values. The bound comes from the variable's value domain,
// not the block (scratch blocks are shared across value domains of equal
// width and are allocated at full slot capacity).
func (ev *Evaluator) domGuard(env *evalEnv, vars []string) (bdd.Ref, error) {
	k := ev.store.Kernel()
	guard := bdd.True
	for _, v := range vars {
		rd := env.an.Domain(v)
		if rd == nil {
			return bdd.Invalid, fmt.Errorf("logic: variable %s has no domain", v)
		}
		guard = k.And(guard, env.blocks[v].LessConst(rd.Size()))
		if guard == bdd.Invalid {
			return bdd.Invalid, ev.kerr()
		}
	}
	return guard, nil
}

func (ev *Evaluator) evalQuant(q Quant, env *evalEnv, negated bool) (bdd.Ref, error) {
	k := ev.store.Kernel()
	var vars []int
	for _, v := range q.Vars {
		vars = append(vars, env.blocks[v].Vars()...)
	}
	cube := k.Cube(vars...)
	if cube == bdd.Invalid {
		return bdd.Invalid, ev.kerr()
	}
	guard, err := ev.domGuard(env, q.Vars)
	if err != nil {
		return bdd.Invalid, err
	}
	// Relativize: ∀x φ over the finite domain is ∀x (guard ⇒ φ), and
	// ∃x φ is ∃x (guard ∧ φ). Both guards distribute over ∧ and ∨
	// (guard⇒(a∧b) ≡ (guard⇒a)∧(guard⇒b), guard⇒(a∨b) ≡ (guard⇒a)∨(guard⇒b),
	// and dually for ∧ with guard conjunction on either operand), so the
	// combined AppEx/AppAll operations still apply.
	var op bdd.ApplyOp
	var l, r Formula
	switch body := q.F.(type) {
	case And:
		op, l, r = bdd.OpAnd, body.L, body.R
	case Or:
		op, l, r = bdd.OpOr, body.L, body.R
	}
	if l != nil {
		lb, err := ev.eval(l, env, negated)
		if err != nil {
			return bdd.Invalid, err
		}
		rb, err := ev.eval(r, env, negated)
		if err != nil {
			return bdd.Invalid, err
		}
		var res bdd.Ref
		if q.All {
			res = k.AppAll(k.Imp(guard, lb), k.Imp(guard, rb), op, cube)
		} else if op == bdd.OpAnd {
			res = k.AppEx(k.And(guard, lb), rb, op, cube)
		} else {
			res = k.AppEx(k.And(guard, lb), k.And(guard, rb), op, cube)
		}
		if res != bdd.Invalid {
			return res, nil
		}
		return bdd.Invalid, ev.kerr()
	}
	body, err := ev.eval(q.F, env, negated)
	if err != nil {
		return bdd.Invalid, err
	}
	var res bdd.Ref
	if q.All {
		res = k.Forall(k.Imp(guard, body), cube)
	} else {
		res = k.Exists(k.And(guard, body), cube)
	}
	if res != bdd.Invalid {
		return res, nil
	}
	return bdd.Invalid, ev.kerr()
}

func (ev *Evaluator) evalEq(l, r Term, env *evalEnv) (bdd.Ref, error) {
	lv, lIsVar := l.(Var)
	rv, rIsVar := r.(Var)
	switch {
	case lIsVar && rIsVar:
		if f := fdd.EqVar(env.blocks[lv.Name], env.blocks[rv.Name]); f != bdd.Invalid {
			return f, nil
		}
		return bdd.Invalid, ev.kerr()
	case lIsVar || rIsVar:
		v, c := lv, r
		if rIsVar {
			v, c = rv, l
		}
		rd := env.an.Domain(v.Name)
		code, ok := rd.Code(c.(Const).Value)
		if !ok {
			return bdd.False, nil
		}
		if f := env.blocks[v.Name].EqConst(int(code)); f != bdd.Invalid {
			return f, nil
		}
		return bdd.Invalid, ev.kerr()
	default:
		lc, rc := l.(Const), r.(Const)
		if lc.Value == rc.Value {
			return bdd.True, nil
		}
		return bdd.False, nil
	}
}

// evalPred binds one predicate occurrence against its logical index,
// memoizing the bound BDD per table version — unless the binding is the
// index's root or one of its maintained projections, which the index pins
// and keeps current itself.
func (ev *Evaluator) evalPred(p Pred, env *evalEnv, negated bool) (bdd.Ref, error) {
	k := ev.store.Kernel()
	ix := ev.store.Index(p.Table)
	binding := env.an.Preds[p.Table]
	if ix == nil || !sameCols(ix.Columns(), binding.Cols) {
		return bdd.Invalid, fmt.Errorf("%w: %s", ErrNoIndex, p.Table)
	}
	if v := binding.Table.Version(); ev.predVersion[p.Table] != v {
		ev.dropPreds(p.Table)
		ev.predVersion[p.Table] = v
	}
	key := ev.predKey(p, ix, env, negated)
	if e, ok := ev.predCache[key]; ok {
		return e.ref, nil
	}
	f, indexOwned, err := ev.evalPredUncached(p, ix, binding, env, negated)
	if err != nil || indexOwned {
		return f, err
	}
	if len(ev.predCache) >= maxPredCache {
		oldest := ev.predOrder[0]
		ev.predOrder = ev.predOrder[1:]
		k.Unprotect(ev.predCache[oldest].ref)
		delete(ev.predCache, oldest)
	}
	ev.predCache[key] = predCacheEntry{pred: p.Table, ref: k.Protect(f)}
	ev.predOrder = append(ev.predOrder, key)
	return f, nil
}

// ForgetPred drops every cached binding of the named predicate, whatever
// version they were bound at. A caller that moves the predicate's index to
// another image of its table calls it: the table's version counter tells two
// states of one catalog apart, not two catalogs.
func (ev *Evaluator) ForgetPred(pred string) {
	ev.dropPreds(pred)
	delete(ev.predVersion, pred)
}

// CachedRefs lists the bound predicate BDDs the evaluator caches, one per
// entry: each holds one pin of the store's kernel.
func (ev *Evaluator) CachedRefs() []bdd.Ref {
	out := make([]bdd.Ref, 0, len(ev.predCache))
	for _, e := range ev.predCache {
		out = append(out, e.ref)
	}
	return out
}

// dropPreds unpins and forgets every cached binding of the named predicate.
func (ev *Evaluator) dropPreds(pred string) {
	k := ev.store.Kernel()
	kept := ev.predOrder[:0]
	for _, key := range ev.predOrder {
		if e := ev.predCache[key]; e.pred == pred {
			k.Unprotect(e.ref)
			delete(ev.predCache, key)
			continue
		}
		kept = append(kept, key)
	}
	ev.predOrder = kept
}

// predKey identifies a bound predicate occurrence: the index (by its first
// block variable, which changes when the index is rebuilt), the constant
// arguments, the target block of each variable argument, repeated-variable
// structure, and whether the early-projection rule applies.
func (ev *Evaluator) predKey(p Pred, ix *index.Index, env *evalEnv, negated bool) string {
	var sb strings.Builder
	sb.WriteString(p.Table)
	fmt.Fprintf(&sb, "@%d", ix.Domains()[0].Vars()[0])
	seen := make(map[string]int, len(p.Args))
	for i, arg := range p.Args {
		switch a := arg.(type) {
		case Const:
			fmt.Fprintf(&sb, "|c%q", a.Value)
		case Var:
			if j, dup := seen[a.Name]; dup {
				fmt.Fprintf(&sb, "|=%d", j)
				continue
			}
			seen[a.Name] = i
			if ev.projects(env, a.Name, negated) {
				sb.WriteString("|p")
			} else {
				fmt.Fprintf(&sb, "|v%d", env.blocks[a.Name].Vars()[0])
			}
		}
	}
	return sb.String()
}

// evalPredUncached binds a predicate occurrence. indexOwned reports that the
// result is the index's root or one of its maintained projections, which the
// index pins and keeps current, so the caller must not cache it.
func (ev *Evaluator) evalPredUncached(p Pred, ix *index.Index, binding PredBinding, env *evalEnv, negated bool) (f bdd.Ref, indexOwned bool, err error) {
	k := ev.store.Kernel()
	doms := ix.Domains()

	// 1. Constant arguments become a restriction, repeated variables pairs
	// of argument positions to equate.
	var lits []bdd.Literal
	firstPos := make(map[string]int)
	var dupPairs [][2]int // (first, duplicate) argument positions
	for i, arg := range p.Args {
		switch a := arg.(type) {
		case Const:
			code, ok := binding.Table.ColumnDomain(binding.Cols[i]).Code(a.Value)
			if !ok {
				return bdd.False, false, nil // value never seen: no tuple matches
			}
			lits = append(lits, doms[i].Lits(int(code))...)
		case Var:
			if j, seen := firstPos[a.Name]; seen {
				dupPairs = append(dupPairs, [2]int{j, i})
			} else {
				firstPos[a.Name] = i
			}
		}
	}

	// 2. Early projection of single-occurrence variables: a variable whose
	// existential binder reaches this atom through ∧/∨ only — or, under a
	// negation, whose stripped ∀ does — is projected out here instead of
	// being renamed and quantified later. The others are kept and bound.
	names := make([]string, 0, len(firstPos))
	for name := range firstPos {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return firstPos[names[i]] < firstPos[names[j]] })
	var from, to, projected []*fdd.Domain
	var kept []int // ascending, as names is
	for _, name := range names {
		i := firstPos[name]
		if ev.projects(env, name, negated) {
			projected = append(projected, doms[i])
			continue
		}
		kept = append(kept, i)
		from = append(from, doms[i])
		to = append(to, env.blocks[name])
	}

	// 3. An atom with neither constants nor repeated variables reads the
	// index's maintained projection onto its kept columns (the root itself
	// when it projects nothing). Otherwise restrict the constants, equate
	// each duplicate block with its first occurrence and project the
	// duplicate away, then project the single-occurrence variables.
	indexOwned = len(lits) == 0 && len(dupPairs) == 0
	if indexOwned {
		f = ix.Projection(kept)
	} else {
		f = ix.Root()
		if len(lits) > 0 {
			if f = k.Restrict(f, lits); f == bdd.Invalid {
				return bdd.Invalid, false, ev.kerr()
			}
		}
		for _, d := range dupPairs {
			eq := fdd.EqVar(doms[d[0]], doms[d[1]])
			if eq == bdd.Invalid {
				return bdd.Invalid, false, ev.kerr()
			}
			if f = k.AppEx(f, eq, bdd.OpAnd, doms[d[1]].Cube()); f == bdd.Invalid {
				return bdd.Invalid, false, ev.kerr()
			}
		}
		if len(projected) > 0 {
			f = fdd.Exists(f, projected...)
		}
	}
	if f == bdd.Invalid {
		return bdd.Invalid, false, ev.kerr()
	}
	// Variables assigned this predicate's own canonical blocks need no
	// binding at all; drop the identity pairs.
	w := 0
	for i := range from {
		if from[i] != to[i] {
			from[w], to[w] = from[i], to[i]
			w++
		}
	}
	from, to = from[:w], to[:w]
	if len(from) == 0 {
		return f, indexOwned, nil
	}
	f, err = ev.renameBlocks(p, f, from, to)
	return f, false, err
}

// renameBlocks binds the remaining canonical blocks of a predicate's BDD to
// its variables' blocks with one §4.2 rename through an interned map. The
// pairs may swap or cycle blocks (a variable that claimed one of this
// index's own blocks); Replace substitutes simultaneously, so that is still a
// rename: after the restriction and projection f's support is the from
// blocks plus blocks bound in place, and no pair targets the latter.
func (ev *Evaluator) renameBlocks(p Pred, f bdd.Ref, from, to []*fdd.Domain) (bdd.Ref, error) {
	key := replaceKey(p.Table, from, to)
	m, ok := ev.replaceMaps[key]
	if !ok {
		var err error
		m, err = fdd.ReplaceMap(from, to)
		if err != nil {
			return bdd.Invalid, err
		}
		ev.replaceMaps[key] = m
	}
	if f = ev.store.Kernel().Replace(f, m); f == bdd.Invalid {
		return bdd.Invalid, ev.kerr()
	}
	return f, nil
}

func sameCols(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func replaceKey(table string, from, to []*fdd.Domain) string {
	var sb strings.Builder
	sb.WriteString(table)
	for i := range from {
		fmt.Fprintf(&sb, "|%d>%d", from[i].Vars()[0], to[i].Vars()[0])
	}
	return sb.String()
}
