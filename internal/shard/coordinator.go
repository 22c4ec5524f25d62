// coordinator.go fans /check, /update and /witnesses out to shard workers
// and merges the results according to each constraint's Plan. The
// coordinator additionally serves a residual checker over the full catalog —
// the correctness backstop for constraints the decomposer cannot prove
// shard-local — as one more headless service.Server, the same worker the
// in-process shards run. The coordinator itself owns no goroutine: a
// one-slot writer channel serializes updates against each other.
//
// Consistency contract: each shard serializes its own operations, the
// residual server serializes residual reads against its mirror of the
// updates, and the coordinator serializes updates against each other.
// Concurrent checks against in-flight updates may observe different shards
// (and the residual) at different epochs: a residual read can run between
// an unacknowledged update's scatter and its mirror. That is per-shard
// serializability, not cross-shard snapshot isolation; every check sent
// after an update's acknowledgement sees it everywhere. A worker transport
// failure degrades the request to a partial-result error naming the shard;
// it never merges an incomplete verdict. A failed fan-out can leave shards
// and residual at diverged epochs — the coordinator reports the error and
// does not advance its epoch, and recovery is the operator's restart path
// (workers re-bootstrap from their own stores or the partition pipeline).
package shard

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/service"
)

// Options tunes the coordinator and its in-process workers.
type Options struct {
	// NodeBudget caps each kernel's BDD nodes; negative means unlimited.
	NodeBudget int
	// Method picks the variable-ordering heuristic for shard indices.
	Method core.OrderingMethod
	// DefaultTimeout bounds requests with no explicit deadline when the
	// coordinator is served through Handler (the edge's default when zero).
	DefaultTimeout time.Duration
	// RandomSeed seeds randomized ordering heuristics.
	RandomSeed int64
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Coordinator owns the shard workers, the residual server and the
// constraint registry, and merges scatter-gather results. The residual
// checker is the residual server's worker's own; nothing here reaches it.
type Coordinator struct {
	*service.Registry // the registered constraints; Resolve and Constraints
	opts              Options
	part              *Partitioner
	workers           []Worker
	residual          *service.Server
	// resolver reads the full catalog's schema — table names, arity and
	// column domains, which no update writes — for planning and routing.
	resolver logic.CatalogResolver
	plans    map[string]Plan // registered constraints, by name

	writer chan struct{} // one slot: route → scatter → mirror, one update at a time
	quit   chan struct{}
	once   sync.Once
	epoch  atomic.Uint64
	start  time.Time

	// Request counters, read by metrics callbacks.
	nChecks         atomic.Uint64
	nWitnesses      atomic.Uint64
	nUpdateBatches  atomic.Uint64
	nUpdateTuples   atomic.Uint64
	nLocalFanouts   atomic.Uint64
	nSingleShard    atomic.Uint64
	nResidualChecks atomic.Uint64
	nWorkerFailures atomic.Uint64

	metrics *obs.Registry
}

// NewInProcess splits the catalog into part.Shards() partitions, builds one
// in-process worker per shard, and assembles the coordinator around them.
// The catalog becomes coordinator-owned: it backs the residual checker and
// must not be mutated by the caller afterwards.
func NewInProcess(cat *relation.Catalog, cts []logic.Constraint, part *Partitioner, opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	parts := part.Split(cat)
	workers := make([]Worker, len(parts))
	for i, pc := range parts {
		w, err := newServerWorker(i, pc, opts)
		if err != nil {
			for _, built := range workers[:i] {
				built.Close()
			}
			return nil, err
		}
		workers[i] = w
	}
	return NewCoordinator(cat, cts, part, workers, opts)
}

// NewCoordinator assembles a coordinator over caller-supplied workers (the
// multi-process path hands in HTTPWorkers). The catalog is the full,
// unsharded state backing the residual checker.
func NewCoordinator(cat *relation.Catalog, cts []logic.Constraint, part *Partitioner, workers []Worker, opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	if len(workers) != part.Shards() {
		return nil, fmt.Errorf("shard: %d workers for %d shards", len(workers), part.Shards())
	}
	reg, err := service.NewRegistry(cts)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		Registry: reg,
		opts:     opts,
		part:     part,
		workers:  workers,
		plans:    make(map[string]Plan, len(cts)),
		writer:   make(chan struct{}, 1),
		quit:     make(chan struct{}),
		start:    time.Now(),
	}
	residual := core.New(cat, core.Options{NodeBudget: opts.NodeBudget, RandomSeed: opts.RandomSeed})
	c.resolver = logic.CatalogResolver{Catalog: cat}
	c.epoch.Store(1)

	// Classify the registry and index exactly the tables residual-classified
	// constraints touch: local and single-shard constraints never reach the
	// residual checker, so indexing their tables would duplicate every shard
	// kernel's state at full size for nothing.
	residualTables := map[string]bool{}
	for _, ct := range cts {
		plan := part.Decompose(ct, c.resolver)
		c.plans[ct.Name] = plan
		if plan.Kind != PlanResidual {
			continue
		}
		if an, err := logic.Analyze(ct.F, c.resolver); err == nil {
			for _, b := range an.Preds {
				residualTables[b.Table.Name()] = true
			}
		}
	}
	for name := range residualTables {
		if _, err := residual.BuildIndex(name, name, nil, opts.Method); err != nil {
			opts.Logf("residual index %s: %v (falls back to SQL)", name, err)
		}
	}
	for _, ct := range cts {
		opts.Logf("plan %s: %s", ct.Name, c.plans[ct.Name])
	}
	// Like a shard: no registry (constraints arrive with each call) and no
	// read replicas.
	if c.residual, err = service.New(residual, nil, service.Options{Replicas: -1}); err != nil {
		return nil, fmt.Errorf("shard: residual: %w", err)
	}
	c.metrics = c.buildMetrics()
	return c, nil
}

// closedErr refuses requests after Close. HTTP workers outlive the
// coordinator, so without it a fan-out would still answer.
func (c *Coordinator) closedErr() error {
	select {
	case <-c.quit:
		return service.ErrShuttingDown
	default:
		return nil
	}
}

// Epoch returns the coordinator's epoch: 1 + applied update batches.
func (c *Coordinator) Epoch() uint64 { return c.epoch.Load() }

// Workers returns the worker set (for status surfaces).
func (c *Coordinator) Workers() []Worker { return c.workers }

// PlanFor classifies one constraint, preferring the cached registry plan
// when the name matches a registered constraint.
func (c *Coordinator) PlanFor(ct logic.Constraint) Plan {
	if reg, ok := c.Lookup(ct.Name); ok && reg.String() == ct.String() {
		return c.plans[ct.Name]
	}
	return c.part.Decompose(ct, c.resolver)
}

// Check evaluates the batch: local constraints fan out to every worker,
// single-shard ones to their owner, residual ones to the residual server,
// all in one scatter; the merged outcomes land in input order. Any worker
// transport failure fails the whole call.
func (c *Coordinator) Check(ctx context.Context, cts []logic.Constraint, budget int, tr *obs.Trace) ([]CheckOutcome, error) {
	if err := c.closedErr(); err != nil {
		return nil, err
	}
	c.nChecks.Add(uint64(len(cts)))
	planStart := tr.Begin()
	plans := make([]Plan, len(cts))
	perWorker := make([][]int, len(c.workers)) // constraint indices per worker
	var residualIdx []int
	for i, ct := range cts {
		plans[i] = c.PlanFor(ct)
		switch plans[i].Kind {
		case PlanLocal:
			c.nLocalFanouts.Add(1)
			for s := range perWorker {
				perWorker[s] = append(perWorker[s], i)
			}
		case PlanSingleShard:
			c.nSingleShard.Add(1)
			perWorker[plans[i].Shard] = append(perWorker[plans[i].Shard], i)
		default:
			c.nResidualChecks.Add(1)
			residualIdx = append(residualIdx, i)
		}
	}
	tr.Span("plan", planStart)

	// Scatter. gathered[s][k] answers perWorker[s][k]; errs[s] is shard s's
	// transport failure, slot len(workers) the residual's.
	gathered := make([][]CheckOutcome, len(c.workers))
	errs := make([]error, len(c.workers)+1)
	var residualOut []CheckOutcome
	var wg sync.WaitGroup
	for s, idxs := range perWorker {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, idxs []int) {
			defer wg.Done()
			t0 := tr.Begin()
			batch := make([]logic.Constraint, len(idxs))
			for k, i := range idxs {
				batch[k] = cts[i]
			}
			out, err := c.workers[s].Check(ctx, batch, budget)
			if err != nil {
				c.nWorkerFailures.Add(1)
				errs[s] = wrapWorkerErr(c.workers[s], err)
				return
			}
			gathered[s] = out
			tr.Span(fmt.Sprintf("shard%d", s), t0)
		}(s, idxs)
	}
	if len(residualIdx) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := make([]logic.Constraint, len(residualIdx))
			for k, i := range residualIdx {
				sub[k] = cts[i]
			}
			results, _, err := c.residual.Check(ctx, sub, 0, budget, 0, tr)
			if err != nil {
				errs[len(c.workers)] = err
				return
			}
			residualOut = outcomesOf(sub, results)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Gather: merge according to each plan.
	mergeStart := tr.Begin()
	out := make([]CheckOutcome, len(cts))
	for s, idxs := range perWorker {
		for k, i := range idxs {
			o := gathered[s][k]
			switch {
			case plans[i].Kind == PlanSingleShard:
				out[i] = o
			case out[i].Method == "": // first shard of a local fan-out
				o.Method = "shard"
				out[i] = o
			default:
				mergeLocal(&out[i], o, plans[i].Mode)
			}
		}
	}
	for k, i := range residualIdx {
		out[i] = residualOut[k]
	}
	tr.Span("merge", mergeStart)
	return out, nil
}

// mergeLocal folds one more shard's outcome into the accumulated merge of a
// PlanLocal constraint: validity-mode verdicts OR (a violation anywhere is
// a violation), existence-mode verdicts AND (violated only if no shard
// found a satisfying binding).
func mergeLocal(acc *CheckOutcome, o CheckOutcome, mode logic.CheckMode) {
	if mode == logic.CheckSatisfiability {
		acc.Violated = acc.Violated && o.Violated
	} else {
		acc.Violated = acc.Violated || o.Violated
	}
	acc.FellBack = acc.FellBack || o.FellBack
	if acc.FallbackReason == "" {
		acc.FallbackReason = o.FallbackReason
	}
	if o.DurationNS > acc.DurationNS {
		acc.DurationNS = o.DurationNS // parallel fan-out: wall clock is the max
	}
	if acc.Err == "" {
		acc.Err = o.Err
	}
}

func wrapWorkerErr(w Worker, err error) error {
	if _, ok := err.(*WorkerError); ok {
		return err
	}
	return &WorkerError{Shard: w.Shard(), URL: w.Status().URL, Err: err}
}

// Witnesses enumerates violating bindings. Local validity-mode constraints
// union per-shard witness sets — exact, because guardedness confines every
// violating binding to the shard owning its anchor value; everything else
// (residual plans, existence mode) goes to the residual server's witness
// drill-down, the single-kernel server's own, SQL step and errors included.
func (c *Coordinator) Witnesses(ctx context.Context, ct logic.Constraint, limit, budget int, tr *obs.Trace) ([]core.Witness, string, error) {
	if err := c.closedErr(); err != nil {
		return nil, "", err
	}
	c.nWitnesses.Add(1)
	plan := c.PlanFor(ct)
	if plan.Mode != logic.CheckValidity || plan.Kind == PlanResidual {
		c.nResidualChecks.Add(1)
		return c.residual.Witnesses(ctx, ct, limit, budget, tr)
	}

	targets := c.workers
	if plan.Kind == PlanSingleShard {
		targets = c.workers[plan.Shard : plan.Shard+1]
	}
	perShard := make([][]core.Witness, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for k, w := range targets {
		wg.Add(1)
		go func(k int, w Worker) {
			defer wg.Done()
			t0 := tr.Begin()
			ws, err := w.Witnesses(ctx, ct, limit, budget)
			if err != nil {
				c.nWorkerFailures.Add(1)
				errs[k] = wrapWorkerErr(w, err)
				return
			}
			perShard[k] = ws
			tr.Span(fmt.Sprintf("shard%d", w.Shard()), t0)
		}(k, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, "", err
		}
	}

	t0 := tr.Begin()
	seen := map[string]bool{}
	var merged []core.Witness
	for _, ws := range perShard {
		for _, wit := range ws {
			key := strings.Join(wit.Vars, "\x00") + "\x01" + strings.Join(wit.Values, "\x00")
			if seen[key] {
				continue
			}
			seen[key] = true
			merged = append(merged, wit)
		}
	}
	// Deterministic order regardless of shard arrival.
	sort.Slice(merged, func(i, j int) bool {
		a := strings.Join(merged[i].Values, "\x00")
		b := strings.Join(merged[j].Values, "\x00")
		return a < b
	})
	if limit > 0 && len(merged) > limit {
		merged = merged[:limit]
	}
	tr.Span("merge", t0)
	return merged, "shard", nil
}

// Update routes the batch to owning shards (broadcast tables to all),
// applies it, then mirrors it into the residual server and advances the
// epoch. The whole batch is pre-validated for routing before any shard sees
// a tuple, so routing errors are atomic; a mid-batch apply error on a shard
// is not (the error names the shard, and the epoch does not advance).
// Updates hold the writer slot from routing to mirror, so they apply in one
// order everywhere; one that cannot take it by its deadline fails with
// service.ErrBusy.
func (c *Coordinator) Update(ctx context.Context, ups []core.Update, tr *obs.Trace) (int, uint64, error) {
	select {
	case c.writer <- struct{}{}:
	case <-ctx.Done():
		return 0, c.epoch.Load(), fmt.Errorf("%w (%v)", service.ErrBusy, ctx.Err())
	case <-c.quit:
		return 0, c.epoch.Load(), service.ErrShuttingDown
	}
	defer func() { <-c.writer }()
	if err := c.closedErr(); err != nil {
		return 0, c.epoch.Load(), err
	}

	// Route first: a bad tuple (unknown table, wrong arity, bad op) fails
	// the batch before any shard mutates.
	t0 := tr.Begin()
	perShard := make([][]core.Update, len(c.workers))
	for _, u := range ups {
		s, broadcast, err := c.part.RouteUpdate(c.resolver.Catalog, u)
		if err != nil {
			return 0, c.epoch.Load(), err
		}
		if broadcast {
			for i := range perShard {
				perShard[i] = append(perShard[i], u)
			}
		} else {
			perShard[s] = append(perShard[s], u)
		}
	}
	tr.Span("route", t0)

	// Scatter to the owning shards in parallel.
	t0 = tr.Begin()
	errs := make([]error, len(c.workers))
	var wg sync.WaitGroup
	for s, batch := range perShard {
		if len(batch) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, batch []core.Update) {
			defer wg.Done()
			if _, err := c.workers[s].Update(ctx, batch); err != nil {
				c.nWorkerFailures.Add(1)
				errs[s] = wrapWorkerErr(c.workers[s], err)
			}
		}(s, batch)
	}
	wg.Wait()
	tr.Span("scatter", t0)
	for _, err := range errs {
		if err != nil {
			return 0, c.epoch.Load(), err
		}
	}

	// Mirror into the residual server. The shards accepted the batch, so a
	// deadline must not refuse the mirror, and a failure here means
	// coordinator state diverged — surfaced loudly.
	if n, err := c.residual.Update(context.WithoutCancel(ctx), ups, tr); err != nil {
		return 0, c.epoch.Load(), fmt.Errorf("shard: residual apply diverged after %d/%d tuples: %w", n, len(ups), err)
	}
	c.nUpdateBatches.Add(1)
	c.nUpdateTuples.Add(uint64(len(ups)))
	return len(ups), c.epoch.Add(1), nil
}

// Close refuses new work, waits for the update in flight, then stops every
// worker and the residual server. It is idempotent.
func (c *Coordinator) Close() {
	c.once.Do(func() {
		close(c.quit)
		c.writer <- struct{}{} // held for good: no update runs after this
		var wg sync.WaitGroup
		for _, w := range c.workers {
			wg.Add(1)
			go func(w Worker) {
				defer wg.Done()
				w.Close()
			}(w)
		}
		c.residual.Close()
		wg.Wait()
	})
}
