package difftest

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/logic"
	"repro/internal/relation"
)

// gen.go generates random cases: a random schema of shared-domain tables
// (plus, sometimes, a product-structured table from internal/datagen), random
// contents with skew/empty/singleton/duplicate edge cases, random well-typed
// constraints over the full grammar logic.Parse accepts (quantifier nesting,
// negation, implication, comparisons, membership sets, constants both known
// and unknown to the dictionaries, multi-table joins through shared domains),
// and random update batches that stay applicable by tracking a shadow copy of
// every table.

// Generator size bounds. Domains stay small so the brute-force referee and
// exhaustive witness enumeration stay cheap, and distinct variables per
// constraint are capped so active-domain products stay tractable.
const (
	constraintsPerCase = 8
	maxVarsPerFormula  = 5
	genAttempts        = 60
	maxRowsPerTable    = 60
)

type caseGen struct {
	ch  Chooser
	c   *Case
	cat *relation.Catalog // built once for Analyze during generation
	// pool is the per-constraint variable pool: name -> domain name.
	pool []poolVar
}

type poolVar struct {
	name, domain string
}

// GenerateCase produces a complete random case from the chooser. It is total
// and deterministic in the chooser's choices: any choice stream yields a
// valid case (the fuzz target feeds it arbitrary bytes).
func GenerateCase(ch Chooser) *Case {
	g := &caseGen{ch: ch, c: &Case{}}
	g.c.Seed = int64(ch.Intn(1 << 20))
	g.c.Ordering = []string{"prob", "maxinf", "random", "schema"}[ch.Intn(4)]
	g.genDomains()
	g.genTables()
	if ch.Intn(3) == 0 {
		g.genProdTable()
	}
	cat, err := g.c.Build()
	if err != nil {
		// The generator constructs only well-formed specs; a build failure is
		// a harness bug, not an input property.
		panic(fmt.Sprintf("difftest: generated case does not build: %v", err))
	}
	g.cat = cat
	for i := 0; i < constraintsPerCase; i++ {
		g.c.Constraints = append(g.c.Constraints, ConstraintSpec{
			Name:   fmt.Sprintf("c%d", i),
			Source: g.genConstraint().String(),
		})
	}
	g.genUpdates()
	g.genConfig()
	return g.c
}

// genConfig draws the case's targets. It draws last: a seed's catalog,
// constraints and batches must not depend on the draw, because corpus
// files are named after the seeds that found them. A zero choice leaves a
// target off, so an exhausted fuzz stream is replica-only and cheap. The
// service is drawn most often: with DebugChecks it is the costliest pair
// the soak must still cover.
func (g *caseGen) genConfig() {
	g.c.Config = Config{
		Follower:    g.ch.Intn(4) == 3,
		Service:     g.ch.Intn(2) == 1,
		Shards:      []int{0, 0, 2, 3}[g.ch.Intn(4)],
		DebugChecks: g.ch.Intn(4) == 3,
	}
}

func (g *caseGen) genDomains() {
	nd := 2 + g.ch.Intn(3) // 2..4
	for i := 0; i < nd; i++ {
		size := 2 + g.ch.Intn(5) // 2..6
		vals := make([]string, size)
		for j := range vals {
			vals[j] = fmt.Sprintf("D%d_%d", i, j)
		}
		g.c.Domains = append(g.c.Domains, DomainSpec{Name: fmt.Sprintf("D%d", i), Values: vals})
	}
}

func (g *caseGen) genTables() {
	nt := 2 + g.ch.Intn(3) // 2..4
	for ti := 0; ti < nt; ti++ {
		nc := 1 + g.ch.Intn(3) // 1..3
		ts := TableSpec{Name: fmt.Sprintf("T%d", ti)}
		for ci := 0; ci < nc; ci++ {
			d := g.c.Domains[g.ch.Intn(len(g.c.Domains))]
			ts.Cols = append(ts.Cols, ColSpec{Name: fmt.Sprintf("c%d", ci), Domain: d.Name})
		}
		g.fillTable(&ts)
		g.c.Tables = append(g.c.Tables, ts)
	}
}

// fillTable picks a content profile: empty tables, singletons, sparse and
// medium random fills, and skewed fills with duplicate tuples (duplicates
// exercise the bag-vs-set boundary between tables and indices, in particular
// the still-present check on incremental deletes).
func (g *caseGen) fillTable(ts *TableSpec) {
	randomRow := func(skewed bool) []string {
		row := make([]string, len(ts.Cols))
		for i, c := range ts.Cols {
			vals := g.values(c.Domain)
			code := g.ch.Intn(len(vals))
			if skewed {
				// Favor low codes: the minimum of two draws halves the mean,
				// concentrating mass like the paper's skewed workloads.
				if c2 := g.ch.Intn(len(vals)); c2 < code {
					code = c2
				}
			}
			row[i] = vals[code]
		}
		return row
	}
	fill := func(n int, skewed bool) {
		for i := 0; i < n; i++ {
			ts.Rows = append(ts.Rows, randomRow(skewed))
		}
	}
	switch g.ch.Intn(6) {
	case 0: // empty
	case 1: // singleton
		fill(1, false)
	case 2, 3: // random fill
		fill(1+g.ch.Intn(maxRowsPerTable), false)
	case 4: // skewed fill (duplicates likely)
		fill(5+g.ch.Intn(maxRowsPerTable-5), true)
	default: // dense: every tuple of the (small) domain product w.p. 1/2
		total := 1
		for _, c := range ts.Cols {
			total *= len(g.values(c.Domain))
		}
		if total > 4*maxRowsPerTable {
			fill(1+g.ch.Intn(maxRowsPerTable), false)
			return
		}
		for t := 0; t < total; t++ {
			if g.ch.Intn(2) == 0 {
				continue
			}
			row := make([]string, len(ts.Cols))
			rem := t
			for i, c := range ts.Cols {
				vals := g.values(c.Domain)
				row[i] = vals[rem%len(vals)]
				rem /= len(vals)
			}
			ts.Rows = append(ts.Rows, row)
		}
	}
}

// values returns the named domain's interned values.
func (g *caseGen) values(name string) []string {
	for _, d := range g.c.Domains {
		if d.Name == name {
			return d.Values
		}
	}
	panic("difftest: unknown domain " + name)
}

// genProdTable layers a table from the paper's k-PROD generator family on
// top of the schema: datagen.KProd materializes it in a scratch catalog and
// the rows are copied into the case spec, so the case stays self-describing.
func (g *caseGen) genProdTable() {
	spec := datagen.ProdSpec{
		Products: g.ch.Intn(3),       // 0 = RANDOM family
		Attrs:    2 + g.ch.Intn(2),   // 2..3
		Tuples:   10 + g.ch.Intn(40), // ~10..50
		DomSize:  2 + g.ch.Intn(5),   // 2..6
	}
	scratch := relation.NewCatalog()
	rng := rand.New(rand.NewSource(int64(g.ch.Intn(1 << 20))))
	t, err := datagen.KProd(scratch, "KP", spec, rng)
	if err != nil {
		panic(fmt.Sprintf("difftest: KProd: %v", err))
	}
	ts := TableSpec{Name: "KP"}
	for i := 0; i < t.NumCols(); i++ {
		dom := DomainSpec{Name: fmt.Sprintf("KPa%d", i)}
		src := t.ColumnDomain(i)
		for code := 0; code < src.Size(); code++ {
			dom.Values = append(dom.Values, src.Value(int32(code)))
		}
		g.c.Domains = append(g.c.Domains, dom)
		ts.Cols = append(ts.Cols, ColSpec{Name: fmt.Sprintf("a%d", i), Domain: dom.Name})
	}
	n := t.Len()
	if n > 2*maxRowsPerTable {
		n = 2 * maxRowsPerTable
	}
	for r := 0; r < n; r++ {
		row := make([]string, t.NumCols())
		for c := range row {
			row[c] = t.Value(r, c)
		}
		ts.Rows = append(ts.Rows, row)
	}
	g.c.Tables = append(g.c.Tables, ts)
}

// genConstraint draws random formulas until one passes Analyze (the grammar
// admits range-unbounded variables and cross-domain comparisons, which
// Analyze rejects by design), falling back to a trivially well-typed
// predicate scan when the attempt budget runs out.
func (g *caseGen) genConstraint() logic.Formula {
	for try := 0; try < genAttempts; try++ {
		g.newPool()
		f := g.formula(2 + g.ch.Intn(2))
		if _, err := logic.Analyze(f, logic.CatalogResolver{Catalog: g.cat}); err == nil {
			return f
		}
	}
	// Fallback: every column of the first table bound to a distinct fresh
	// variable, closed universally by Analyze.
	ts := g.c.Tables[0]
	args := make([]logic.Term, len(ts.Cols))
	for i := range args {
		args[i] = logic.Var{Name: fmt.Sprintf("f%c", 'a'+i)}
	}
	return logic.Pred{Table: ts.Name, Args: args}
}

// newPool draws the constraint's variable pool: a small set of typed
// variables, capped so brute-force referee cost (domain-size ^ variables)
// stays bounded.
func (g *caseGen) newPool() {
	n := 2 + g.ch.Intn(maxVarsPerFormula-1) // 2..5
	g.pool = g.pool[:0]
	for i := 0; i < n; i++ {
		d := g.c.Domains[g.ch.Intn(len(g.c.Domains))]
		g.pool = append(g.pool, poolVar{name: fmt.Sprintf("v%c", 'a'+i), domain: d.Name})
	}
}

// varOf picks a pool variable of the given domain, or "" if none exists.
func (g *caseGen) varOf(dom string) string {
	start := g.ch.Intn(len(g.pool))
	for i := 0; i < len(g.pool); i++ {
		v := g.pool[(start+i)%len(g.pool)]
		if v.domain == dom {
			return v.name
		}
	}
	return ""
}

// knownValue picks a value interned in the domain; unknownValue returns a
// constant no dictionary has ever seen.
func (g *caseGen) knownValue(dom string) string {
	vals := g.values(dom)
	return vals[g.ch.Intn(len(vals))]
}

func (g *caseGen) unknownValue() string {
	return fmt.Sprintf("qq_unknown%d", g.ch.Intn(3))
}

func (g *caseGen) term(dom string) logic.Term {
	r := g.ch.Intn(10)
	if r < 6 {
		if v := g.varOf(dom); v != "" {
			return logic.Var{Name: v}
		}
	}
	if r < 9 {
		return logic.Const{Value: g.knownValue(dom)}
	}
	return logic.Const{Value: g.unknownValue()}
}

func (g *caseGen) atom() logic.Formula {
	switch r := g.ch.Intn(10); {
	case r < 6: // predicate over a random table
		ts := g.c.Tables[g.ch.Intn(len(g.c.Tables))]
		args := make([]logic.Term, len(ts.Cols))
		for i, c := range ts.Cols {
			args[i] = g.term(c.Domain)
		}
		return logic.Pred{Table: ts.Name, Args: args}
	case r < 8: // comparison between typed terms
		v := g.pool[g.ch.Intn(len(g.pool))]
		l := logic.Var{Name: v.name}
		rterm := g.term(v.domain)
		if g.ch.Intn(2) == 0 {
			return logic.Eq{L: l, R: rterm}
		}
		return logic.Neq{L: l, R: rterm}
	case r < 9: // membership set, mixing known and unknown values
		v := g.pool[g.ch.Intn(len(g.pool))]
		n := 1 + g.ch.Intn(3)
		vals := make([]string, n)
		for i := range vals {
			if g.ch.Intn(4) == 0 {
				vals[i] = g.unknownValue()
			} else {
				vals[i] = g.knownValue(v.domain)
			}
		}
		return logic.In{T: logic.Var{Name: v.name}, Values: vals}
	default:
		return logic.Truth{Value: g.ch.Intn(2) == 0}
	}
}

func (g *caseGen) formula(depth int) logic.Formula {
	if depth <= 0 {
		return g.atom()
	}
	switch g.ch.Intn(10) {
	case 0:
		return logic.Not{F: g.formula(depth - 1)}
	case 1, 2:
		return logic.And{L: g.formula(depth - 1), R: g.formula(depth - 1)}
	case 3, 4:
		return logic.Or{L: g.formula(depth - 1), R: g.formula(depth - 1)}
	case 5:
		return logic.Implies{L: g.formula(depth - 1), R: g.formula(depth - 1)}
	case 6, 7, 8:
		n := 1 + g.ch.Intn(2)
		seen := map[string]bool{}
		var vars []string
		for i := 0; i < n; i++ {
			v := g.pool[g.ch.Intn(len(g.pool))].name
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		}
		return logic.Quant{All: g.ch.Intn(2) == 0, Vars: vars, F: g.formula(depth - 1)}
	default:
		return g.atom()
	}
}

// genUpdates draws update batches that are applicable by construction: a
// shadow copy of every table tracks the bag contents so deletes always name
// a live tuple and inserts stay within the interned dictionaries (a value
// that would overflow a fixed-width index block is refused — that failure
// mode has its own unit tests in internal/core and internal/index).
func (g *caseGen) genUpdates() {
	shadow := make(map[string][][]string, len(g.c.Tables))
	for _, ts := range g.c.Tables {
		rows := make([][]string, len(ts.Rows))
		for i, r := range ts.Rows {
			rows[i] = append([]string(nil), r...)
		}
		shadow[ts.Name] = rows
	}
	nb := g.ch.Intn(3) // 0..2 batches
	for b := 0; b < nb; b++ {
		n := 1 + g.ch.Intn(4)
		var batch []core.Update
		for i := 0; i < n; i++ {
			ts := g.c.Tables[g.ch.Intn(len(g.c.Tables))]
			if g.ch.Intn(2) == 0 && len(shadow[ts.Name]) > 0 { // delete
				idx := g.ch.Intn(len(shadow[ts.Name]))
				row := shadow[ts.Name][idx]
				shadow[ts.Name] = append(shadow[ts.Name][:idx], shadow[ts.Name][idx+1:]...)
				batch = append(batch, core.Update{Table: ts.Name, Op: core.UpdateDelete, Values: row})
				continue
			}
			row := make([]string, len(ts.Cols))
			for ci, c := range ts.Cols {
				row[ci] = g.knownValue(c.Domain)
			}
			shadow[ts.Name] = append(shadow[ts.Name], row)
			batch = append(batch, core.Update{Table: ts.Name, Op: core.UpdateInsert, Values: row})
		}
		// Some batches insert one tuple twice and insert, then delete,
		// another: Apply nets a batch per tuple, so a count moves by two
		// and one move cancels out.
		if g.ch.Intn(3) == 0 {
			ts := g.c.Tables[g.ch.Intn(len(g.c.Tables))]
			twice, gone := make([]string, len(ts.Cols)), make([]string, len(ts.Cols))
			for ci, c := range ts.Cols {
				twice[ci] = g.knownValue(c.Domain)
				gone[ci] = g.knownValue(c.Domain)
			}
			shadow[ts.Name] = append(shadow[ts.Name], twice, twice)
			batch = append(batch,
				core.Update{Table: ts.Name, Op: core.UpdateInsert, Values: twice},
				core.Update{Table: ts.Name, Op: core.UpdateInsert, Values: gone},
				core.Update{Table: ts.Name, Op: core.UpdateInsert, Values: twice},
				core.Update{Table: ts.Name, Op: core.UpdateDelete, Values: gone})
		}
		g.c.Updates = append(g.c.Updates, batch)
	}
}
