// Package core is the public face of the reproduction: the constraint
// Checker. Given a catalog of tables, a set of logical indices and a set of
// first-order constraints, it quickly identifies which constraints are
// violated (the paper's headline problem), evaluating each constraint
// against the BDD indices with the §4 rewrite rules and falling back to SQL
// processing when an index is missing or the node budget is exceeded —
// exactly the execution strategy of §4 and §5.2.
//
// Typical use:
//
//	cat := relation.NewCatalog()
//	cust, _ := cat.CreateTable("CUST", []relation.Column{...})
//	// ... load data ...
//	chk := core.New(cat, core.Options{})
//	chk.BuildIndex("CUST", "CUST", nil, core.OrderProbConverge)
//	results := chk.Check(constraints)
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/bdd"
	"repro/internal/fdd"
	"repro/internal/index"
	"repro/internal/logic"
	"repro/internal/ordering"
	"repro/internal/relation"
	"repro/internal/sqlengine"
)

// DefaultNodeBudget is the node threshold the paper selects in §5.2: large
// enough for most constraints, small enough that explosions are detected
// quickly.
const DefaultNodeBudget = 1_000_000

// OrderingMethod selects how BuildIndex orders the variable blocks.
type OrderingMethod int

// Ordering methods.
const (
	// OrderSchema keeps the schema column order.
	OrderSchema OrderingMethod = iota
	// OrderProbConverge uses the Prob-Converge heuristic (§3.2), the
	// paper's recommended choice.
	OrderProbConverge
	// OrderMaxInfGain uses the information-gain heuristic (§3.1).
	OrderMaxInfGain
	// OrderRandom uses a random permutation (the "BDD: random" baseline of
	// Table 1).
	OrderRandom
)

func (m OrderingMethod) String() string {
	switch m {
	case OrderSchema:
		return "schema"
	case OrderProbConverge:
		return "prob-converge"
	case OrderMaxInfGain:
		return "max-inf-gain"
	case OrderRandom:
		return "random"
	default:
		return fmt.Sprintf("OrderingMethod(%d)", int(m))
	}
}

// ParseOrderingMethod maps the CLI spelling of an ordering method ("prob",
// "maxinf", "random", "schema") to the OrderingMethod constant.
func ParseOrderingMethod(s string) (OrderingMethod, error) {
	switch s {
	case "prob":
		return OrderProbConverge, nil
	case "maxinf":
		return OrderMaxInfGain, nil
	case "random":
		return OrderRandom, nil
	case "schema":
		return OrderSchema, nil
	default:
		return 0, fmt.Errorf("core: unknown ordering %q (want prob|maxinf|random|schema)", s)
	}
}

// Options configures a Checker.
type Options struct {
	// NodeBudget bounds the shared BDD node table; DefaultNodeBudget when
	// zero. Negative means unlimited.
	NodeBudget int
	// RandomSeed seeds OrderRandom index builds.
	RandomSeed int64
	// NoFDFastPath disables the specialized functional-dependency check
	// (projection + model counting on the index BDD, §5.2 / Figure 5(b))
	// and forces FD constraints through the generic evaluator.
	NoFDFastPath bool
}

// Method says how a constraint was validated.
type Method string

// Validation methods.
const (
	MethodBDD Method = "bdd"
	MethodSQL Method = "sql"
)

// Result reports the validation of one constraint.
type Result struct {
	Constraint logic.Constraint
	// Violated reports whether the constraint fails on the current data.
	Violated bool
	// Method says whether the BDD indices or the SQL fallback decided it.
	Method Method
	// FellBack is set when BDD evaluation was attempted but aborted (node
	// budget) or impossible (missing index), and SQL took over.
	FellBack bool
	// FallbackReason carries the error that caused the fallback.
	FallbackReason error
	// Duration is the wall-clock validation time.
	Duration time.Duration
	// SQLDuration is the part of Duration spent in the SQL fallback
	// (compile + run); zero when the fallback did not run.
	SQLDuration time.Duration
	// Kernel is the BDD-kernel counter movement (nodes allocated, GC runs,
	// cache hits, apply ops) attributable to this validation — the tracing
	// layer's per-stage attribution. Capturing it is two counter snapshots.
	Kernel bdd.Delta
	// Err is set when validation failed outright (e.g. analysis errors).
	Err error
}

// BDDDuration is the part of Duration spent in BDD work (index evaluation
// or the FD fast path) rather than the SQL fallback.
func (r Result) BDDDuration() time.Duration { return r.Duration - r.SQLDuration }

// Checker validates constraints against a catalog using logical indices.
type Checker struct {
	catalog *relation.Catalog
	store   *index.Store
	ev      *logic.Evaluator
	opts    Options
	rng     *rand.Rand
	// indexRegistry maps table name → names of indices built over it, for
	// incremental maintenance.
	indexRegistry map[string][]string
	stats         Stats
}

// Stats counts how the checker decided constraints since creation.
type Stats struct {
	// BDDChecks counts constraints decided by the generic BDD evaluator.
	BDDChecks int
	// FDFastPath counts constraints decided by the FD projection fast path.
	FDFastPath int
	// SQLFallbacks counts constraints that fell back to the SQL engine
	// (missing index or exceeded node budget).
	SQLFallbacks int
	// Errors counts constraints whose validation failed outright.
	Errors int
}

// Stats returns the checker's decision counters.
func (c *Checker) Stats() Stats { return c.stats }

// KernelStats snapshots the shared BDD kernel's counters (node counts, GC
// runs, cache hits), for monitoring endpoints.
func (c *Checker) KernelStats() bdd.Stats { return c.store.Kernel().Stats() }

// New creates a Checker over the catalog.
func New(catalog *relation.Catalog, opts Options) *Checker {
	budget := opts.NodeBudget
	switch {
	case budget == 0:
		budget = DefaultNodeBudget
	case budget < 0:
		budget = 0 // unlimited
	}
	store := index.NewStore(index.Options{NodeBudget: budget})
	c := &Checker{
		catalog:       catalog,
		store:         store,
		opts:          opts,
		rng:           rand.New(rand.NewSource(opts.RandomSeed + 1)),
		indexRegistry: make(map[string][]string),
	}
	c.ev = logic.NewEvaluator(store, resolver{c})
	return c
}

// Catalog returns the underlying catalog.
func (c *Checker) Catalog() *relation.Catalog { return c.catalog }

// Store returns the underlying index store.
func (c *Checker) Store() *index.Store { return c.store }

// Evaluator returns the BDD constraint evaluator.
func (c *Checker) Evaluator() *logic.Evaluator { return c.ev }

// safePoint ends every exported operation that runs kernel work: between
// operations the checker holds no Ref it has not pinned, so its kernel may
// collect there (bdd.Kernel.SafePoint), and nowhere else.
func (c *Checker) safePoint() { c.store.Kernel().SafePoint() }

// Resolver returns the checker's predicate resolver (index names first,
// then table names), for use with logic.Analyze or sqlengine.Compile.
func (c *Checker) Resolver() logic.Resolver { return resolver{c} }

// resolver resolves predicate names: an index name wins (predicates then
// range over the indexed projection), otherwise a table name with full
// schema arity.
type resolver struct{ c *Checker }

// ResolvePred implements logic.Resolver.
func (r resolver) ResolvePred(name string, arity int) (*relation.Table, []int, error) {
	if ix := r.c.store.Index(name); ix != nil {
		if arity != len(ix.Columns()) {
			return nil, nil, fmt.Errorf("core: index %q covers %d columns, predicate written with %d arguments",
				name, len(ix.Columns()), arity)
		}
		return ix.Table(), ix.Columns(), nil
	}
	return logic.CatalogResolver{Catalog: r.c.catalog}.ResolvePred(name, arity)
}

// BuildIndex builds a logical index named name over the given columns of
// table (all columns when cols is nil), choosing the variable-block layout
// with the given ordering method. The index name doubles as a predicate
// name in constraints.
func (c *Checker) BuildIndex(name, table string, cols []string, method OrderingMethod) (*index.Index, error) {
	defer c.safePoint()
	t := c.catalog.Table(table)
	if t == nil {
		return nil, fmt.Errorf("core: unknown table %q", table)
	}
	colIdx := make([]int, 0, t.NumCols())
	if cols == nil {
		for i := 0; i < t.NumCols(); i++ {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, name := range cols {
			i := t.ColumnIndex(name)
			if i < 0 {
				return nil, fmt.Errorf("core: table %q has no column %q", table, name)
			}
			colIdx = append(colIdx, i)
		}
	}
	order, err := c.orderFor(t, colIdx, method)
	if err != nil {
		return nil, err
	}
	ix, err := c.store.Build(name, t, colIdx, order)
	if err != nil {
		return nil, err
	}
	c.indexRegistry[table] = append(c.indexRegistry[table], name)
	return ix, nil
}

// orderFor computes a variable ordering (a permutation of positions into
// cols) for the projection of t onto cols.
func (c *Checker) orderFor(t *relation.Table, cols []int, method OrderingMethod) ([]int, error) {
	switch method {
	case OrderSchema:
		return nil, nil
	case OrderRandom:
		return ordering.Random(c.rng, len(cols)), nil
	case OrderProbConverge, OrderMaxInfGain:
		proj, err := projectionTable(t, cols)
		if err != nil {
			return nil, err
		}
		if method == OrderProbConverge {
			return ordering.ProbConverge(proj, nil), nil
		}
		return ordering.MaxInfGain(proj), nil
	default:
		return nil, fmt.Errorf("core: unknown ordering method %v", method)
	}
}

// projectionTable materializes the projection of t onto cols for the
// statistics computations, in a scratch catalog of its own: the checker's
// catalog never sees it. The statistics read codes only, so the scratch
// table carries t's codes without its value dictionaries.
func projectionTable(t *relation.Table, cols []int) (*relation.Table, error) {
	if len(cols) == t.NumCols() {
		schema := true
		for i, c := range cols {
			if c != i {
				schema = false
				break
			}
		}
		if schema {
			return t, nil
		}
	}
	specs := make([]relation.Column, len(cols))
	names := t.ColumnNames()
	for i, col := range cols {
		specs[i] = relation.Column{Name: names[col], Domain: t.ColumnDomain(col).Name()}
	}
	proj, err := relation.NewCatalog().CreateTable(t.Name()+"$proj", specs)
	if err != nil {
		return nil, err
	}
	for r := 0; r < t.Len(); r++ {
		row := t.Row(r)
		enc := make([]int32, len(cols))
		for i, col := range cols {
			enc[i] = row[col]
		}
		proj.InsertCodes(enc)
	}
	return proj, nil
}

// CheckOne validates a single constraint: functional dependencies go
// through the projection-and-counting fast path of Figure 5(b), everything
// else through generic BDD evaluation, with SQL fallback on missing index
// or exceeded node budget.
func (c *Checker) CheckOne(ct logic.Constraint) Result {
	defer c.safePoint()
	return c.checkOne(ct, CheckOptions{})
}

func (c *Checker) checkOne(ct logic.Constraint, opts CheckOptions) (res Result) {
	k := c.store.Kernel()
	before := k.Stats()
	defer func() { res.Kernel = k.Stats().DeltaSince(before) }()
	if !c.opts.NoFDFastPath {
		if res, ok := c.tryFDFastPath(ct); ok {
			c.stats.FDFastPath++
			return res
		}
	}
	start := time.Now()
	res = Result{Constraint: ct, Method: MethodBDD}
	holds, err := c.ev.Holds(ct)
	if err == nil {
		c.stats.BDDChecks++
		res.Violated = !holds
		res.Duration = time.Since(start)
		return res
	}
	if !errors.Is(err, logic.ErrNoIndex) && !errors.Is(err, bdd.ErrBudget) {
		c.stats.Errors++
		res.Err = err
		res.Duration = time.Since(start)
		return res
	}
	if opts.NoSQLFallback {
		// The caller wants the fallback routed elsewhere (a read-only
		// replica has no live data to scan): report the need without
		// running SQL and without claiming the fallback in the stats —
		// whoever re-runs the constraint counts it.
		res.FellBack = true
		res.FallbackReason = err
		res.Err = err
		res.Duration = time.Since(start)
		return res
	}
	c.stats.SQLFallbacks++
	res.Method = MethodSQL
	res.FellBack = true
	res.FallbackReason = err
	sqlStart := time.Now()
	q, err := sqlengine.Compile(ct, resolver{c})
	if err != nil {
		c.stats.Errors++
		res.Err = err
		res.SQLDuration = time.Since(sqlStart)
		res.Duration = time.Since(start)
		return res
	}
	violated, _, err := q.Run()
	if err != nil {
		c.stats.Errors++
		res.Err = err
	}
	res.Violated = violated
	res.SQLDuration = time.Since(sqlStart)
	res.Duration = time.Since(start)
	return res
}

// CheckOptions tunes a single validation call.
type CheckOptions struct {
	// NodeBudget, when positive, caps the kernel node budget for the
	// duration of this call. It never raises the budget above the
	// checker-wide limit; a cap below the nodes already live makes BDD
	// evaluation abort immediately and the call degrade to the SQL fallback.
	// A long-lived service passes each request's node_budget here.
	NodeBudget int
	// NoSQLFallback, when set, stops a check that needs the SQL fallback
	// (missing index or exceeded budget) before the table scan: the Result
	// comes back with FellBack set and Err carrying the reason, and no SQL
	// runs. Read-only replicas use this to bounce fallback work to the
	// primary, which sees the live tables.
	NoSQLFallback bool
}

// CheckOneOpts validates a single constraint like CheckOne, under the
// per-call options.
func (c *Checker) CheckOneOpts(ct logic.Constraint, opts CheckOptions) (res Result) {
	defer c.safePoint()
	c.withBudget(opts.NodeBudget, func() { res = c.checkOne(ct, opts) })
	return res
}

// withBudget runs f with the kernel budget temporarily capped at budget
// (when positive), restoring the previous budget afterwards.
func (c *Checker) withBudget(budget int, f func()) {
	if budget <= 0 {
		f()
		return
	}
	k := c.store.Kernel()
	prev := k.Budget()
	if prev > 0 && prev < budget {
		budget = prev
	}
	k.SetBudget(budget)
	defer k.SetBudget(prev)
	// The start of an operation is a safe point too: the garbage earlier
	// operations left below the trigger is collected here, not charged to
	// this call's budget.
	k.SafePoint()
	f()
}

// tryFDFastPath checks a functional-dependency constraint by projection and
// model counting on the index BDD: project the index onto determinant +
// dependent columns, count the distinct projected tuples, project the
// dependent away, count again — the FD holds iff the two counts coincide.
// This is the Figure 5(b) strategy ("projection of suitable attributes to
// construct new BDDs and manipulation of the resulting BDDs"). Both the pairs
// and the groups are maintained projections of the index (Index.Projection):
// only the first check after the index was built pays for them, and a
// replica adopts them with the index, so its checks after an update cost two
// reads and two counts.
func (c *Checker) tryFDFastPath(ct logic.Constraint) (Result, bool) {
	fd, ok := logic.DetectFD(ct.F)
	if !ok {
		return Result{}, false
	}
	ix := c.store.Index(fd.Pred)
	if ix == nil || len(ix.Domains()) != fd.Arity {
		return Result{}, false
	}
	start := time.Now()
	doms := ix.Domains()
	keep := append([]int{fd.Dependent}, fd.Determinant...)
	slices.Sort(keep)
	keep = slices.Compact(keep)
	var det, pairVars, detVars []int
	for _, i := range keep {
		pairVars = append(pairVars, doms[i].Vars()...)
		if i != fd.Dependent {
			det = append(det, i)
			detVars = append(detVars, doms[i].Vars()...)
		}
	}
	sort.Ints(pairVars)
	sort.Ints(detVars)
	pairsBDD := ix.Projection(keep)
	if pairsBDD == bdd.Invalid {
		c.ev.Recover()
		return Result{}, false // budget hit; let the generic path decide
	}
	groupsBDD := ix.Projection(det)
	if groupsBDD == bdd.Invalid {
		c.ev.Recover()
		return Result{}, false
	}
	k := c.store.Kernel()
	pairs := k.SatCountWithin(pairsBDD, pairVars)
	groups := k.SatCountWithin(groupsBDD, detVars)
	return Result{
		Constraint: ct,
		Method:     MethodBDD,
		Violated:   pairs > groups,
		Duration:   time.Since(start),
	}, true
}

// Check validates every constraint and returns per-constraint results in
// input order.
func (c *Checker) Check(cs []logic.Constraint) []Result {
	out := make([]Result, len(cs))
	for i, ct := range cs {
		out[i] = c.CheckOne(ct)
	}
	return out
}

// Witness is one violating binding of a constraint's leading universally
// quantified variables.
type Witness struct {
	Vars   []string
	Values []string
}

// ViolationWitnesses extracts up to limit violating bindings from the BDD
// evaluation of a violated constraint (the paper proposes identifying the
// violated constraints fast, then drilling into tuples; the violation BDD
// gives the drill-down for free). The violation set comes from
// logic.Evaluator.Violations, which starts from the verdict and joins it
// back to the columns the verdict projected away. A nil error with no
// witnesses means the constraint holds. It returns ErrNoIndex/ErrBudget like
// Eval; callers then use ViolatingRows.
func (c *Checker) ViolationWitnesses(ct logic.Constraint, limit int) ([]Witness, error) {
	defer c.safePoint()
	return c.violationWitnesses(ct, limit)
}

func (c *Checker) violationWitnesses(ct logic.Constraint, limit int) ([]Witness, error) {
	out, err := c.ev.Violations(ct)
	if err != nil {
		return nil, err
	}
	if out.Mode != logic.CheckValidity {
		return nil, fmt.Errorf("core: constraint %s is an existence check; it has no per-binding witnesses", ct.Name)
	}
	if out.Holds || limit == 0 {
		return nil, nil
	}
	an, err := logic.Analyze(ct.F, resolver{c})
	if err != nil {
		return nil, err
	}
	blocks := make([]*fdd.Domain, len(out.Stripped))
	valueDoms := make([]*relation.Domain, len(out.Stripped))
	varNames := make([]string, len(out.Stripped))
	for i, v := range out.Stripped {
		blocks[i] = out.Blocks[v]
		valueDoms[i] = an.Domain(v)
		varNames[i] = logic.BaseName(v)
	}
	return decodeWitnesses(c.store.Kernel(), out.Violations, blocks, valueDoms, varNames, limit), nil
}

// decodeWitnesses enumerates up to limit satisfying bindings of viol over
// blocks, each block's value decoded through its value domain: every AllSat
// path, with its don't-care bits expanded block by block, low values first,
// skipping a block's slots past its value domain's size (the block's own
// size when it has none). An index block's size is its domain's at build
// time; values interned since then sit past it. The bits a path fixes sit
// in one slice indexed by kernel variable, set for the path and cleared
// after it, so a path costs no allocation; a witness costs its Values slice.
func decodeWitnesses(k *bdd.Kernel, viol bdd.Ref, blocks []*fdd.Domain, valueDoms []*relation.Domain, varNames []string, limit int) []Witness {
	const free = -1
	sizes := slotLimits(blocks, valueDoms)
	fixed := make([]int8, k.NumVars())
	for i := range fixed {
		fixed[i] = free
	}
	vals := make([]int, len(blocks))
	var witnesses []Witness
	var expand func(bi int) bool
	// walk assigns bit j onward of block bi, v holding the bits above j.
	var walk func(bi, j, v int) bool
	expand = func(bi int) bool {
		if bi < len(blocks) {
			return walk(bi, 0, 0)
		}
		w := Witness{Vars: varNames, Values: make([]string, len(blocks))}
		for i, d := range valueDoms {
			if d != nil {
				w.Values[i] = d.Value(int32(vals[i]))
			} else {
				w.Values[i] = fmt.Sprintf("#%d", vals[i])
			}
		}
		witnesses = append(witnesses, w)
		return len(witnesses) < limit
	}
	walk = func(bi, j, v int) bool {
		vars := blocks[bi].Vars()
		if j == len(vars) {
			if v >= sizes[bi] {
				return true // out-of-domain slot, skip
			}
			vals[bi] = v
			return expand(bi + 1)
		}
		if bit := fixed[vars[j]]; bit != free {
			return walk(bi, j+1, v<<1|int(bit))
		}
		return walk(bi, j+1, v<<1) && walk(bi, j+1, v<<1|1)
	}
	k.AllSat(viol, func(path []bdd.Literal) bool {
		for _, l := range path {
			fixed[l.Var] = 0
			if l.Value {
				fixed[l.Var] = 1
			}
		}
		more := expand(0)
		for _, l := range path {
			fixed[l.Var] = free
		}
		return more
	})
	return witnesses
}

// slotLimits returns, per block, the number of its slots that hold values:
// its value domain's size, or the block's own without one.
func slotLimits(blocks []*fdd.Domain, valueDoms []*relation.Domain) []int {
	sizes := make([]int, len(blocks))
	for i, b := range blocks {
		sizes[i] = b.Size()
		if d := valueDoms[i]; d != nil {
			sizes[i] = d.Size()
		}
	}
	return sizes
}

// ViolationWitnessesOpts extracts witnesses like ViolationWitnesses, under
// the per-call options.
func (c *Checker) ViolationWitnessesOpts(ct logic.Constraint, limit int, opts CheckOptions) (ws []Witness, err error) {
	defer c.safePoint()
	c.withBudget(opts.NodeBudget, func() { ws, err = c.violationWitnesses(ct, limit) })
	return ws, err
}

// ViolatingRows runs the compiled SQL violation query and returns the
// violating bindings — the precise-tuple identification step the paper
// performs with SQL after a constraint is known to be violated.
func (c *Checker) ViolatingRows(ct logic.Constraint) (*sqlengine.Rows, error) {
	q, err := sqlengine.Compile(ct, resolver{c})
	if err != nil {
		return nil, err
	}
	_, rows, err := q.Run()
	return rows, err
}

// WitnessResult reports one witness drill-down.
type WitnessResult struct {
	Witnesses []Witness
	// Method says whether the violation BDD or the SQL violation query
	// answered.
	Method Method
	// EnumDuration is the time the BDD enumeration took, Kernel its kernel
	// counter movement.
	EnumDuration time.Duration
	Kernel       bdd.Delta
	// SQLDuration is the time the SQL violation query took; zero when the
	// BDD answered.
	SQLDuration time.Duration
	// Err is the BDD's error when the SQL query failed too.
	Err error
}

// Witnesses extracts up to limit violating bindings in two steps: from the
// violation BDD (ViolationWitnessesOpts), and, when the BDD path fails
// (missing index, blown budget, an existence check), from the compiled SQL
// violation query (ViolatingRows). No witnesses and no error is the BDD's
// definite answer that the constraint holds.
func (c *Checker) Witnesses(ct logic.Constraint, limit int, opts CheckOptions) WitnessResult {
	k := c.store.Kernel()
	enumStart := time.Now()
	before := k.Stats()
	ws, err := c.ViolationWitnessesOpts(ct, limit, opts)
	res := WitnessResult{Witnesses: ws, Method: MethodBDD, EnumDuration: time.Since(enumStart), Kernel: k.Stats().DeltaSince(before)}
	if err == nil {
		return res
	}
	sqlStart := time.Now()
	rows, rerr := c.ViolatingRows(ct)
	res.SQLDuration = time.Since(sqlStart)
	if rerr != nil {
		res.Err = err
		return res
	}
	res.Method = MethodSQL
	for i := 0; i < rows.Len() && i < limit; i++ {
		res.Witnesses = append(res.Witnesses, Witness{Vars: rows.Vars, Values: rows.Decode(i)})
	}
	return res
}

// SQLOf renders the violation query of a constraint in explanatory SQL.
func (c *Checker) SQLOf(ct logic.Constraint) (string, error) {
	q, err := sqlengine.Compile(ct, resolver{c})
	if err != nil {
		return "", err
	}
	return q.SQL(), nil
}

// UpdateOp names a tuple-level mutation kind.
type UpdateOp string

// Update operations.
const (
	UpdateInsert UpdateOp = "insert"
	UpdateDelete UpdateOp = "delete"
)

// Update is one tuple-level mutation, for batched application.
type Update struct {
	// Table names the target table.
	Table string
	// Op is the mutation kind.
	Op UpdateOp
	// Values are the tuple's attribute values in schema order.
	Values []string
}

// Apply applies a batch of updates to the tables and their indices in three
// phases. It validates the batch first, before anything changes, and finds
// the prefix it will apply: the updates ahead of the first one that names
// an unknown op or table, has the wrong arity, deletes a tuple the table
// does not hold (counting the batch's earlier updates), or carries a value
// whose code does not fit a block of an index over the value's domain. Then
// each index over a table the prefix touches nets the prefix and computes
// its new root and projections (index.Index.Apply): one BDD per direction
// per index and per projection. Last, the tables take the prefix's rows and
// the indices their new roots, together. Apply returns how many updates it
// applied and the error that stopped it. When the node budget aborts an
// index's root, nothing is applied and Apply returns 0. The batch ends at a
// safe point.
func (c *Checker) Apply(ups []Update) (int, error) {
	return c.ApplyLogged(ups, nil)
}

// ApplyLogged applies a batch like Apply, and runs log on the prefix it is
// about to apply after every index has computed its change and before the
// tables and indices take it: a durable caller writes its log record there.
// A log error changes nothing: ApplyLogged returns 0 and that error. log is
// not called when the prefix is empty, and a nil log logs nothing.
func (c *Checker) ApplyLogged(ups []Update, log func(prefix []Update) error) (int, error) {
	defer c.safePoint()
	rows, err := c.validate(ups)
	if len(rows) == 0 {
		return 0, err
	}
	var changes []*index.Change
	for _, t := range c.catalog.Tables() {
		var plus, minus [][]int32
		for _, r := range rows {
			switch {
			case r.t != t:
			case r.del:
				minus = append(minus, r.codes)
			default:
				plus = append(plus, r.codes)
			}
		}
		if len(plus)+len(minus) == 0 {
			continue
		}
		for _, name := range c.indexRegistry[t.Name()] {
			ch, ierr := c.store.Index(name).Apply(plus, minus)
			if ierr != nil {
				return 0, fmt.Errorf("core: applying %d updates: %w", len(rows), ierr)
			}
			changes = append(changes, ch)
		}
	}
	if log != nil {
		if lerr := log(ups[:len(rows)]); lerr != nil {
			return 0, lerr
		}
	}
	for i, r := range rows {
		if r.del {
			r.t.DeleteCodes(r.codes)
		} else {
			r.t.Insert(ups[i].Values...)
		}
	}
	for _, ch := range changes {
		ch.Commit()
	}
	return len(rows), err
}

// encoded is a validated update: its table and its tuple's codes, a new
// value's code being the one its dictionary will give it.
type encoded struct {
	t     *relation.Table
	codes []int32
	del   bool
}

// validate encodes the longest valid prefix of a batch and returns the
// error of the update that ends it, if one does. It changes nothing.
func (c *Checker) validate(ups []Update) ([]encoded, error) {
	v := validation{
		fresh: make(map[*relation.Domain]map[string]int32),
		moved: make(map[rowKey]int),
	}
	out := make([]encoded, 0, len(ups))
	for i, u := range ups {
		e, err := c.validateOne(&v, u)
		if err != nil {
			return out, fmt.Errorf("core: update %d: %w", i, err)
		}
		out = append(out, e)
	}
	return out, nil
}

// validation is what validate knows of a batch's earlier updates: the codes
// its new values take, and how far it moves each table's count of a row.
type validation struct {
	fresh  map[*relation.Domain]map[string]int32
	moved  map[rowKey]int
	blocks map[*relation.Domain]block // nil until an insert needs it
}

// rowKey names a row of a table by its codes' relation.AppendKey.
type rowKey struct {
	t   *relation.Table
	key string
}

// block is the narrowest index block over a domain: the bound its codes
// must stay below.
type block struct {
	index string
	bits  int
}

func (c *Checker) validateOne(v *validation, u Update) (encoded, error) {
	if u.Op != UpdateInsert && u.Op != UpdateDelete {
		return encoded{}, fmt.Errorf("core: unknown update op %q", u.Op)
	}
	t := c.catalog.Table(u.Table)
	if t == nil {
		return encoded{}, fmt.Errorf("core: unknown table %q", u.Table)
	}
	e := encoded{t: t, codes: make([]int32, len(u.Values)), del: u.Op == UpdateDelete}
	if len(u.Values) != t.NumCols() {
		verb := "insert into"
		if e.del {
			verb = "delete from"
		}
		return encoded{}, fmt.Errorf("core: %s %q with %d values, want %d", verb, u.Table, len(u.Values), t.NumCols())
	}
	if v.blocks == nil && !e.del {
		v.blocks = c.narrowestBlocks()
	}
	for i, val := range u.Values {
		d := t.ColumnDomain(i)
		code, ok := d.Code(val)
		if !ok {
			code, ok = v.fresh[d][val]
		}
		switch {
		case !ok && e.del:
			return encoded{}, fmt.Errorf("core: value %q not present in %s column %d", val, u.Table, i)
		case !ok:
			if v.fresh[d] == nil {
				v.fresh[d] = make(map[string]int32)
			}
			code = int32(d.Size() + len(v.fresh[d]))
			v.fresh[d][val] = code
		}
		if b, ok := v.blocks[d]; ok && !e.del && int(code) >= 1<<b.bits {
			return encoded{}, fmt.Errorf("core: value %q (code %d) of %s column %d overflows the %d-bit block of index %q; rebuild the index",
				val, code, u.Table, i, b.bits, b.index)
		}
		e.codes[i] = code
	}
	rk := rowKey{t, string(relation.AppendKey(nil, e.codes))}
	if !e.del {
		v.moved[rk]++
		return e, nil
	}
	if t.Count(e.codes)+v.moved[rk] <= 0 {
		return encoded{}, fmt.Errorf("core: tuple not found in %s", u.Table)
	}
	v.moved[rk]--
	return e, nil
}

// narrowestBlocks maps each domain an index column draws on to the
// narrowest block over it: a code at or past 2^bits fits no such index.
func (c *Checker) narrowestBlocks() map[*relation.Domain]block {
	out := make(map[*relation.Domain]block)
	for _, name := range c.store.Names() {
		ix := c.store.Index(name)
		for j, col := range ix.Columns() {
			d := ix.Table().ColumnDomain(col)
			bits := ix.Domains()[j].Bits()
			if b, ok := out[d]; !ok || bits < b.bits {
				out[d] = block{index: name, bits: bits}
			}
		}
	}
	return out
}
