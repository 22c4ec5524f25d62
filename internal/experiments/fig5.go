package experiments

import (
	"fmt"
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/sqlengine"
)

// fig5.go reproduces Figure 5: BDD vs SQL constraint checking on the
// customer data — membership/implication constraints against a 10,000-row
// Constraints relation (a), and the functional dependency areacode → state
// (b, paper: BDD wins by 6–8×).

// membershipConstraint is the Figure 5(a) check: every base pair whose city
// appears in the constraints table must itself be an allowed pair.
const membershipConstraint = `
	forall c, a: PAIRS(c, a) and (exists x: CONS(c, x)) => CONS(c, a)
`

// Fig5a measures the membership-constraint check for both pair schemas of
// the paper — (city, areacode) and (city, state) — across base-relation
// sizes. The BDD side encodes the constraints relation into a BDD on the
// fly, as the paper describes; the SQL side runs the compiled join /
// anti-join plan.
func Fig5a(cfg Config) error {
	w := cfg.out()
	fmt.Fprintln(w, "=== Figure 5(a): membership constraints, BDD vs SQL (10,000 constraints) ===")
	fmt.Fprintf(w, "%-9s | %14s %14s %8s | %14s %14s %8s\n",
		"tuples", "c-a sql", "c-a bdd", "gain", "c-s sql", "c-s bdd", "gain")
	for _, n := range cfg.customerSizes() {
		cat := relation.NewCatalog()
		data, err := datagen.Customers(cat, "CUST", datagen.CustomerSpec{Tuples: n}, cfg.rng(int64(n)))
		if err != nil {
			return err
		}
		cons, err := datagen.MembershipConstraints(cat, "CONSCA", data, 10000, cfg.rng(int64(n+1)))
		if err != nil {
			return err
		}
		// The city→state constraints relation, derived from ground truth.
		cons2, err := cat.CreateTable("CONSCS", []relation.Column{
			{Name: "city", Domain: "CUST.city"},
			{Name: "state", Domain: "CUST.state"},
		})
		if err != nil {
			return err
		}
		rng := cfg.rng(int64(n + 2))
		for i := 0; i < 10000; i++ {
			city := rng.Intn(datagen.NumCities)
			cons2.InsertCodes([]int32{int32(city), int32(data.CityState[city])})
		}
		ca, err := runFig5aVariant(data.Table, []int{2, 0}, cons)
		if err != nil {
			return err
		}
		cs, err := runFig5aVariant(data.Table, []int{2, 3}, cons2)
		if err != nil {
			return err
		}
		for _, v := range []struct {
			pairs string
			r     fig5Result
		}{{"city-areacode", ca}, {"city-state", cs}} {
			cfg.record(BenchRow{Experiment: "fig5a", Name: "check", Params: map[string]any{"pairs": v.pairs, "approach": "sql", "tuples": n}, NsPerOp: v.r.sql.Nanoseconds()})
			cfg.record(BenchRow{Experiment: "fig5a", Name: "check", Params: map[string]any{"pairs": v.pairs, "approach": "bdd", "tuples": n}, NsPerOp: v.r.bdd.Nanoseconds()}.withWork(v.r.work))
		}
		fmt.Fprintf(w, "%-9d | %14v %14v %8.1f | %14v %14v %8.1f\n",
			n, ca.sql.Round(time.Microsecond), ca.bdd.Round(time.Microsecond), ca.gain(),
			cs.sql.Round(time.Microsecond), cs.bdd.Round(time.Microsecond), cs.gain())
	}
	fmt.Fprintln(w, "paper: BDD outperforms SQL by significant margins, growing with relation size")
	return nil
}

type fig5Result struct {
	sql, bdd time.Duration
	work     bdd.Delta // the kernel work of the BDD side
}

func (r fig5Result) gain() float64 { return float64(r.sql) / float64(r.bdd) }

// runFig5aVariant times one membership check. pairCols selects the two base
// columns forming the pairs (e.g. city+areacode).
func runFig5aVariant(base *relation.Table, pairCols []int, cons *relation.Table) (fig5Result, error) {
	var out fig5Result
	// BDD side: index on the base pairs is assumed (it is the logical
	// index the system maintains); the constraints relation is encoded on
	// the fly inside the timed region.
	store := index.NewStore(index.Options{})
	if _, err := store.Build("PAIRS", base, pairCols, nil); err != nil {
		return out, err
	}
	f, err := logic.Parse(membershipConstraint)
	if err != nil {
		return out, err
	}
	ct := logic.Constraint{Name: "membership", F: f}
	res := fig5Resolver{base: base, pairCols: pairCols, cons: cons}

	before := store.Kernel().Stats()
	start := time.Now()
	if _, err := store.Build("CONS", cons, []int{0, 1}, nil); err != nil {
		return out, err
	}
	ev := logic.NewEvaluator(store, res)
	if _, err := ev.Eval(ct); err != nil {
		return out, err
	}
	out.bdd = time.Since(start)
	out.work = store.Kernel().Stats().DeltaSince(before)
	store.Drop("CONS")

	// SQL side: the compiled join / anti-join plan over the base table.
	start = time.Now()
	q, err := sqlengine.Compile(ct, res)
	if err != nil {
		return out, err
	}
	if _, _, err := q.Run(); err != nil {
		return out, err
	}
	out.sql = time.Since(start)
	return out, nil
}

// fig5Resolver maps PAIRS to the base projection and CONS to the
// constraints table.
type fig5Resolver struct {
	base     *relation.Table
	pairCols []int
	cons     *relation.Table
}

// ResolvePred implements logic.Resolver.
func (r fig5Resolver) ResolvePred(name string, arity int) (*relation.Table, []int, error) {
	switch name {
	case "PAIRS":
		if arity != len(r.pairCols) {
			return nil, nil, fmt.Errorf("PAIRS wants %d args", len(r.pairCols))
		}
		return r.base, r.pairCols, nil
	case "CONS":
		if arity != 2 {
			return nil, nil, fmt.Errorf("CONS wants 2 args")
		}
		return r.cons, []int{0, 1}, nil
	default:
		return nil, nil, fmt.Errorf("unknown predicate %q", name)
	}
}

// Fig5b measures the functional-dependency constraint areacode → state
// three ways: the SQL self-join plan the generic translation produces, the
// in-memory hash group-by shortcut, and the BDD projection-and-counting
// strategy the paper describes ("projection of suitable attributes ... and
// manipulation of the resulting BDDs"). The generic BDD self-join is also
// reported for reference.
func Fig5b(cfg Config) error {
	w := cfg.out()
	fmt.Fprintln(w, "=== Figure 5(b): FD areacode → state, BDD vs SQL ===")
	fmt.Fprintf(w, "%-9s | %14s %14s | %14s %14s | %8s\n",
		"tuples", "sql selfjoin", "sql groupby", "bdd project", "bdd selfjoin", "gain*")
	for _, n := range cfg.customerSizes() {
		cat := relation.NewCatalog()
		// A touch of noise so the FD is genuinely violated sometimes, as on
		// real dirty data.
		data, err := datagen.Customers(cat, "CUST", datagen.CustomerSpec{
			Tuples: n, NoiseRate: 0.001,
		}, cfg.rng(int64(2*n)))
		if err != nil {
			return err
		}
		f, err := logic.Parse(`forall a, s1, s2: NCS(a, _, s1) and NCS(a, _, s2) => s1 = s2`)
		if err != nil {
			return err
		}
		ct := logic.Constraint{Name: "fd", F: f}

		fast := core.New(cat, core.Options{})
		if _, err := fast.BuildIndex("NCS", "CUST", []string{"areacode", "city", "state"}, core.OrderProbConverge); err != nil {
			return err
		}
		rFast := fast.CheckOne(ct)
		if rFast.Err != nil {
			return rFast.Err
		}

		generic := core.New(cat, core.Options{NoFDFastPath: true})
		if _, err := generic.BuildIndex("NCS", "CUST", []string{"areacode", "city", "state"}, core.OrderProbConverge); err != nil {
			return err
		}
		rGen := generic.CheckOne(ct)
		if rGen.Err != nil {
			return rGen.Err
		}

		start := time.Now()
		q, err := sqlengine.Compile(ct, fast.Resolver())
		if err != nil {
			return err
		}
		sqlViolated, _, err := q.Run()
		if err != nil {
			return err
		}
		sqlJoin := time.Since(start)

		start = time.Now()
		gbViolated := sqlengine.CheckFD(data.Table, []int{0}, []int{3})
		sqlGroup := time.Since(start)

		if rFast.Violated != sqlViolated || rGen.Violated != sqlViolated || gbViolated != sqlViolated {
			return fmt.Errorf("fig5b: strategies disagree at %d tuples", n)
		}
		for _, cell := range []struct {
			approach string
			d        time.Duration
			work     bdd.Delta
		}{{"sql-selfjoin", sqlJoin, bdd.Delta{}}, {"sql-groupby", sqlGroup, bdd.Delta{}}, {"bdd-project", rFast.Duration, rFast.Kernel}, {"bdd-selfjoin", rGen.Duration, rGen.Kernel}} {
			cfg.record(BenchRow{Experiment: "fig5b", Name: "check", Params: map[string]any{"approach": cell.approach, "tuples": n}, NsPerOp: cell.d.Nanoseconds()}.withWork(cell.work))
		}
		fmt.Fprintf(w, "%-9d | %14v %14v | %14v %14v | %8.1f\n",
			n, sqlJoin.Round(time.Microsecond), sqlGroup.Round(time.Microsecond),
			rFast.Duration.Round(time.Microsecond), rGen.Duration.Round(time.Microsecond),
			float64(sqlJoin)/float64(rFast.Duration))
	}
	fmt.Fprintln(w, "gain* = sql selfjoin / bdd project. paper: BDD outperforms SQL by a factor of 6-8;")
	fmt.Fprintln(w, "our in-memory hash group-by is a far stronger baseline than the paper's RDBMS")
	return nil
}
