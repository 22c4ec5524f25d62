package difftest

import (
	"slices"

	"repro/internal/logic"
)

// shrink.go greedily minimizes a failing case while preserving the oracle
// mismatch. The shrinker only accepts a candidate when RunCase reproduces a
// mismatch *without* a hard error — a candidate that merely breaks the
// harness (dangling table reference, inapplicable delete) is rejected, so
// the minimized repro is always a well-formed case. Passes repeat until a
// fixed point or the run budget is exhausted:
//
//	0. drop every target, and DebugChecks, the mismatch does not need,
//	1. keep only one constraint,
//	2. drop update batches, then individual update operations,
//	3. drop whole tables and whole domains,
//	4. delta-debug the rows of every table,
//	5. shrink the constraint formula structurally (subformula → child,
//	   subformula → true/false, fewer quantified variables, smaller
//	   membership sets),
//	6. drop individual domain values.

// shrinkBudget caps RunCase invocations per Shrink call; each run rebuilds
// catalogs and kernels, so the cap bounds shrink time on pathological cases.
const shrinkBudget = 3000

type shrinker struct {
	runs int
	// kind pins the Mismatch.Kind of the original failure: a candidate only
	// counts as reproducing when it fails the same way, so e.g. an
	// "sql-error" case cannot drift into an unrelated "verdict" mismatch
	// mid-shrink.
	kind string
}

// Shrink returns a minimized copy of a failing case. If c does not actually
// fail (or fails only with a hard error), it is returned unchanged.
func Shrink(c *Case) *Case {
	s := &shrinker{}
	cur := c.clone()
	mm, err := RunCase(cur)
	if err != nil || mm == nil {
		return cur
	}
	s.kind = mm.Kind
	for changed := true; changed && s.runs < shrinkBudget; {
		changed = false
		changed = s.shrinkConfig(&cur) || changed
		changed = s.shrinkConstraints(&cur) || changed
		changed = s.shrinkUpdates(&cur) || changed
		changed = s.shrinkTables(&cur) || changed
		changed = s.shrinkRows(&cur) || changed
		changed = s.shrinkFormula(&cur) || changed
		changed = s.shrinkDomainValues(&cur) || changed
	}
	return cur
}

func (s *shrinker) fails(c *Case) bool {
	if s.runs >= shrinkBudget {
		return false
	}
	s.runs++
	mm, err := RunCase(c)
	return err == nil && mm != nil && mm.Kind == s.kind
}

// accept swaps *cur for cand when cand still reproduces.
func (s *shrinker) accept(cur **Case, cand *Case) bool {
	if s.fails(cand) {
		*cur = cand
		return true
	}
	return false
}

// shrinkConfig turns off each part of the case's Config in turn: the repro
// then names only what it needs, and every later candidate runs faster.
func (s *shrinker) shrinkConfig(cur **Case) bool {
	changed := false
	for _, off := range []func(*Config){
		func(g *Config) { g.Follower = false },
		func(g *Config) { g.Service = false },
		func(g *Config) { g.Shards = 0 },
		func(g *Config) { g.DebugChecks = false },
	} {
		cand := (*cur).clone()
		off(&cand.Config)
		if cand.Config != (*cur).Config && s.accept(cur, cand) {
			changed = true
		}
	}
	return changed
}

func (s *shrinker) shrinkConstraints(cur **Case) bool {
	changed := false
	if len((*cur).Constraints) > 1 {
		for _, ct := range (*cur).Constraints {
			cand := (*cur).clone()
			cand.Constraints = []ConstraintSpec{ct}
			if s.accept(cur, cand) {
				changed = true
				break
			}
		}
	}
	return changed
}

// dropEach tries deleting each element of a list of the case in turn —
// n counts the list, drop deletes element i from a clone — and keeps every
// deletion that still reproduces.
func (s *shrinker) dropEach(cur **Case, n func(*Case) int, drop func(c *Case, i int)) bool {
	changed := false
	for i := 0; i < n(*cur); {
		cand := (*cur).clone()
		drop(cand, i)
		if s.accept(cur, cand) {
			changed = true
		} else {
			i++
		}
	}
	return changed
}

func (s *shrinker) shrinkUpdates(cur **Case) bool {
	changed := s.dropEach(cur, func(c *Case) int { return len(c.Updates) },
		func(c *Case, i int) { c.Updates = slices.Delete(c.Updates, i, i+1) })
	for bi := 0; bi < len((*cur).Updates); bi++ {
		changed = s.dropEach(cur, func(c *Case) int { return len(c.Updates[bi]) },
			func(c *Case, i int) { c.Updates[bi] = slices.Delete(c.Updates[bi], i, i+1) }) || changed
	}
	return changed
}

func (s *shrinker) shrinkTables(cur **Case) bool {
	changed := s.dropEach(cur, func(c *Case) int { return len(c.Tables) },
		func(c *Case, i int) { c.Tables = slices.Delete(c.Tables, i, i+1) })
	return s.dropEach(cur, func(c *Case) int { return len(c.Domains) },
		func(c *Case, i int) { c.Domains = slices.Delete(c.Domains, i, i+1) }) || changed
}

// shrinkRows is ddmin per table: remove progressively smaller chunks of
// rows while the mismatch persists.
func (s *shrinker) shrinkRows(cur **Case) bool {
	changed := false
	for ti := range (*cur).Tables {
		chunk := (len((*cur).Tables[ti].Rows) + 1) / 2
		for chunk >= 1 {
			removed := false
			for start := 0; start < len((*cur).Tables[ti].Rows); {
				rows := (*cur).Tables[ti].Rows
				end := start + chunk
				if end > len(rows) {
					end = len(rows)
				}
				cand := (*cur).clone()
				cand.Tables[ti].Rows = append(append([][]string(nil), rows[:start]...), rows[end:]...)
				if s.accept(cur, cand) {
					changed, removed = true, true
					// keep start: the next chunk shifted into this slot
				} else {
					start = end
				}
			}
			if !removed && chunk == 1 {
				break
			}
			if !removed {
				chunk /= 2
			}
		}
	}
	return changed
}

func (s *shrinker) shrinkFormula(cur **Case) bool {
	changed := false
	for ci := range (*cur).Constraints {
		for {
			f, err := logic.Parse((*cur).Constraints[ci].Source)
			if err != nil {
				break // unparseable source never reproduces; fails() guards anyway
			}
			reduced := false
			for _, g := range formulaShrinks(f) {
				cand := (*cur).clone()
				cand.Constraints[ci].Source = g.String()
				if s.accept(cur, cand) {
					changed, reduced = true, true
					break
				}
			}
			if !reduced {
				break
			}
		}
	}
	return changed
}

func (s *shrinker) shrinkDomainValues(cur **Case) bool {
	changed := false
	for di := range (*cur).Domains {
		changed = s.dropEach(cur, func(c *Case) int { return len(c.Domains[di].Values) },
			func(c *Case, i int) { c.Domains[di].Values = slices.Delete(c.Domains[di].Values, i, i+1) }) || changed
	}
	return changed
}

// formulaShrinks enumerates one-step structural reductions of a formula:
// replace any subformula by a constant or by one of its children, drop
// quantified variables, and shrink membership sets. Each result is strictly
// smaller, so repeated application terminates.
func formulaShrinks(f logic.Formula) []logic.Formula {
	var out []logic.Formula
	if _, ok := f.(logic.Truth); !ok {
		out = append(out, logic.Truth{Value: true}, logic.Truth{Value: false})
	}
	switch g := f.(type) {
	case logic.Not:
		out = append(out, g.F)
		for _, sf := range formulaShrinks(g.F) {
			out = append(out, logic.Not{F: sf})
		}
	case logic.And:
		out = append(out, g.L, g.R)
		for _, sf := range formulaShrinks(g.L) {
			out = append(out, logic.And{L: sf, R: g.R})
		}
		for _, sf := range formulaShrinks(g.R) {
			out = append(out, logic.And{L: g.L, R: sf})
		}
	case logic.Or:
		out = append(out, g.L, g.R)
		for _, sf := range formulaShrinks(g.L) {
			out = append(out, logic.Or{L: sf, R: g.R})
		}
		for _, sf := range formulaShrinks(g.R) {
			out = append(out, logic.Or{L: g.L, R: sf})
		}
	case logic.Implies:
		out = append(out, g.L, g.R)
		for _, sf := range formulaShrinks(g.L) {
			out = append(out, logic.Implies{L: sf, R: g.R})
		}
		for _, sf := range formulaShrinks(g.R) {
			out = append(out, logic.Implies{L: g.L, R: sf})
		}
	case logic.Quant:
		out = append(out, g.F)
		if len(g.Vars) > 1 {
			for i := range g.Vars {
				vs := append(append([]string(nil), g.Vars[:i]...), g.Vars[i+1:]...)
				out = append(out, logic.Quant{All: g.All, Vars: vs, F: g.F})
			}
		}
		for _, sf := range formulaShrinks(g.F) {
			out = append(out, logic.Quant{All: g.All, Vars: g.Vars, F: sf})
		}
	case logic.In:
		if len(g.Values) > 1 {
			for i := range g.Values {
				vs := append(append([]string(nil), g.Values[:i]...), g.Values[i+1:]...)
				out = append(out, logic.In{T: g.T, Values: vs})
			}
		}
	}
	return out
}
