package main

// inproc.go is the in-process half of the traced pass: the harness builds
// the daemon's stack from the packages' public constructors, replays the op
// list on it and wraps a span around each public call. The single-kernel
// stack mirrors internal/service (decode -> resolve -> replica pool ->
// encode; apply -> WAL -> freeze/publish -> snapshot); the sharded one runs
// internal/shard's coordinator over workers the harness owns (shardWorker).
// Every in-process answer is checked against the reference oracle, and one
// check in sixteen also against internal/sqlengine.
//
// The sharded stack is also where shard_scatter's end-to-end
// kernel_kops_per_op comes from (e2e.go), with a nil recorder.
//
// Two layers are timed beside the call that contains them, because their
// entry points are not reachable through it: ordering.ProbConverge runs
// inside Checker.BuildIndex and logic.Rewrite inside Checker.CheckOneOpts,
// so the harness calls each once more on the same input and reports that.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/logic"
	"repro/internal/ordering"
	"repro/internal/relation"
	"repro/internal/replica"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/sqlengine"
	"repro/internal/store"
)

const passInproc = "inproc"

// sqlSampleEvery is the oracle's sqlengine sampling period, in check ops.
const sqlSampleEvery = 16

// inproc is the harness's own copy of the daemon's stack.
type inproc struct {
	w   *workload
	rec *recorder
	dir string

	cat *relation.Catalog

	// Single-kernel stack.
	chk       *core.Checker
	registry  []logic.Constraint
	pool      *replica.Pool
	st        *store.Store
	rulesText string
	epoch     uint64
	sinceSnap int
	// adopted marks the replica.do spans during which a worker adopted a
	// new version.
	adopted map[int]bool
	// shardSpans collects the spans the shard workers time on the
	// coordinator's goroutines during one coordinator call; the caller places
	// them under the call's span afterwards (recorder.nest).
	shardMu    sync.Mutex
	shardSpans []*span

	// Sharded stack.
	part    *shard.Partitioner
	coord   *shard.Coordinator
	workers []*shardWorker
	// shardSteps is the shard kernels' steps over the measured ops.
	shardSteps uint64

	nodes    int // index nodes after the build
	checkOps int
	tuples   int // update tuples applied over the measured ops
	// WAL bytes and tuples over the whole replay, and the newest snapshot's
	// size, read when the store closes.
	walBytes, walTuples, snapshotBytes int64
	// first counts the in-process answers the oracle rejects.
	first firstFailure
}

// shardWorker is a shard.Worker over a checker the harness owns. The daemon
// exposes no kernel counters in sharded mode — the coordinator's /statsz has
// only kernel_live_nodes per shard, its ?trace=1 spans carry no kernel
// deltas, and shard.NewInProcess keeps its workers' checkers private — so the
// harness hands shard.NewCoordinator workers whose kernels it can read. The
// worker does what internal/shard's in-process worker does: one checker,
// indexed under the table's own name, jobs one at a time. Planning, routing,
// scatter, the residual checker and the merge are internal/shard's own; a
// change inside its private worker would not show here.
type shardWorker struct {
	in    *inproc
	shard int
	// mu serializes the jobs, as the real worker's queue does.
	mu  sync.Mutex
	chk *core.Checker
}

func (w *shardWorker) Shard() int { return w.shard }

func (w *shardWorker) kernel() *bdd.Kernel { return w.chk.Store().Kernel() }

// job runs f on the worker's checker and times it for the trace.
func (w *shardWorker) job(name string, f func()) {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.in
	if s.rec == nil {
		f()
		return
	}
	sp := &span{Pass: passInproc, Name: name}
	s.rec.time(sp, []*bdd.Kernel{w.kernel()}, f)
	s.shardMu.Lock()
	s.shardSpans = append(s.shardSpans, sp)
	s.shardMu.Unlock()
}

// coordCall runs one coordinator call inside a span and nests the shard
// workers' spans under it.
func (s *inproc) coordCall(root, i int, name string, f func()) {
	call := s.rec.in(passInproc, root, i, name, nil, func(int) { f() })
	if call == nil {
		return
	}
	for _, sp := range s.shardSpans {
		sp.Op = i
	}
	s.rec.nest(call, s.shardSpans)
	s.shardSpans = nil
}

func (w *shardWorker) Check(_ context.Context, cts []logic.Constraint, budget int) ([]shard.CheckOutcome, error) {
	out := make([]shard.CheckOutcome, len(cts))
	w.job("core.check", func() {
		for i, ct := range cts {
			res := w.chk.CheckOneOpts(ct, core.CheckOptions{NodeBudget: budget})
			out[i] = shard.CheckOutcome{Name: ct.Name, Violated: res.Violated, Method: string(res.Method), FellBack: res.FellBack, DurationNS: res.Duration.Nanoseconds()}
			if res.FallbackReason != nil {
				out[i].FallbackReason = res.FallbackReason.Error()
			}
			if res.Err != nil {
				out[i].Err = res.Err.Error()
			}
		}
	})
	return out, nil
}

func (w *shardWorker) Witnesses(_ context.Context, ct logic.Constraint, limit, budget int) (ws []core.Witness, err error) {
	w.job("core.witness", func() { ws, err = w.chk.ViolationWitnessesOpts(ct, limit, core.CheckOptions{NodeBudget: budget}) })
	return ws, err
}

func (w *shardWorker) Update(_ context.Context, ups []core.Update) (applied int, err error) {
	w.job("core.apply", func() { applied, err = w.chk.Apply(ups) })
	return applied, err
}

func (w *shardWorker) Status() shard.WorkerStatus {
	return shard.WorkerStatus{Shard: w.shard, InProcess: true, Up: true}
}

func (w *shardWorker) Close() {}

// shardKernelSteps sums the shard kernels' step counters.
func (s *inproc) shardKernelSteps() uint64 {
	var n uint64
	for _, w := range s.workers {
		n += w.kernel().Stats().Ops
	}
	return n
}

// shardStats sums the shard checkers' decision counters.
func (s *inproc) shardStats() core.Stats {
	var out core.Stats
	for _, w := range s.workers {
		st := w.chk.Stats()
		out.BDDChecks += st.BDDChecks
		out.FDFastPath += st.FDFastPath
		out.SQLFallbacks += st.SQLFallbacks
	}
	return out
}

// strictDecode mirrors the daemon's request decoding.
func strictDecode(body []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// encodeReply mirrors the daemon's reply encoding.
func encodeReply(v any) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// newInproc builds the stack under set-up spans (op -1).
func newInproc(w *workload, rec *recorder, dir string) (*inproc, error) {
	s := &inproc{w: w, rec: rec, dir: dir, adopted: map[int]bool{}, epoch: 1}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	csvPath := filepath.Join(dir, "cust.csv")
	if err := os.WriteFile(csvPath, w.csv(), 0o644); err != nil {
		return nil, err
	}
	cat := relation.NewCatalog()
	s.cat = cat
	var t *relation.Table
	var err error
	rec.in(passInproc, 0, -1, "relation.load", nil, func(int) { t, err = cat.ReadCSVFile(table, csvPath, nil) })
	if err != nil {
		return nil, err
	}
	rec.in(passInproc, 0, -1, "logic.parse", nil, func(int) { s.registry, err = logic.ParseConstraints(w.Rules) })
	if err != nil {
		return nil, err
	}
	rec.in(passInproc, 0, -1, "ordering.choose", nil, func(int) { ordering.ProbConverge(t, nil) })

	if w.Shards > 0 {
		rec.in(passInproc, 0, -1, "shard.partition", nil, func(int) {
			s.part, err = shard.NewPartitioner(cat, shard.Key{Table: table, Column: shardKeyColumn}, w.Shards, shard.HashMode, nil)
		})
		if err != nil {
			return nil, err
		}
		rec.in(passInproc, 0, -1, "shard.boot", nil, func(boot int) {
			// As shard.NewInProcess, with the harness's workers.
			ws := make([]shard.Worker, s.part.Shards())
			for n, pc := range s.part.Split(cat) {
				w := &shardWorker{in: s, shard: n, chk: core.New(pc, core.Options{})}
				rec.in(passInproc, boot, -1, "index.build", []*bdd.Kernel{w.chk.Store().Kernel()}, func(int) {
					var ix *index.Index
					if ix, err = w.chk.BuildIndex(table, table, nil, core.OrderProbConverge); err == nil {
						s.nodes += ix.NodeCount()
					}
				})
				if err != nil {
					return
				}
				s.workers = append(s.workers, w)
				ws[n] = w
			}
			s.coord, err = shard.NewCoordinator(cat, s.registry, s.part, ws, shard.Options{Method: core.OrderProbConverge})
		})
		return s, err
	}

	s.chk = core.New(cat, core.Options{})
	k := s.chk.Store().Kernel()
	rec.in(passInproc, 0, -1, "index.build", []*bdd.Kernel{k}, func(int) {
		var ix *index.Index
		if ix, err = s.chk.BuildIndex(table, table, nil, core.OrderProbConverge); err == nil {
			s.nodes = ix.NodeCount()
		}
	})
	if err != nil {
		return nil, err
	}
	if w.Durable {
		s.rulesText = store.RenderConstraints(s.registry)
		if s.st, err = store.Open(filepath.Join(dir, "data"), store.Options{Fsync: store.FsyncBatch}); err != nil {
			return nil, err
		}
		rec.in(passInproc, 0, -1, "store.snapshot", nil, func(int) { err = s.st.WriteSnapshot(s.chk, s.rulesText, s.epoch) })
		if err != nil {
			return nil, err
		}
	}
	var v *replica.Version
	rec.in(passInproc, 0, -1, "replica.freeze", []*bdd.Kernel{k}, func(int) { v, err = replica.NewVersion(s.chk, s.epoch) })
	if err != nil {
		return nil, err
	}
	s.pool, err = replica.New(2, v)
	return s, err
}

// close tears the stack down; on the durable workload it then recovers the
// data directory, the path a warm restart takes.
func (s *inproc) close() error {
	if s.coord != nil {
		s.coord.Close()
		return nil
	}
	s.pool.Close()
	if s.st == nil {
		return nil
	}
	s.walBytes = int64(s.st.WALBytesWritten())
	if fi, err := os.Stat(filepath.Join(s.dir, "data", store.SnapshotFileName(s.st.LastSnapshotEpoch()))); err == nil {
		s.snapshotBytes = fi.Size()
	}
	if err := s.st.Close(); err != nil {
		return err
	}
	var err error
	s.rec.in(passInproc, 0, -1, "store.recover", nil, func(int) {
		var st *store.Store
		if st, err = store.Open(filepath.Join(s.dir, "data"), store.Options{Fsync: store.FsyncBatch}); err != nil {
			return
		}
		_, _, _, err = st.Recover(core.Options{})
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	})
	return err
}

// resolve maps a request to constraints the way the daemon does: the text's
// declarations, the named registered constraint, or the whole registry.
func (s *inproc) resolve(parent, i int, text, named string) ([]logic.Constraint, error) {
	if text != "" {
		var cts []logic.Constraint
		var err error
		s.rec.in(passInproc, parent, i, "logic.parse", nil, func(int) { cts, err = logic.ParseConstraints(text) })
		if err != nil {
			return nil, err
		}
		s.rec.in(passInproc, parent, i, "logic.rewrite", nil, func(int) {
			for _, ct := range cts {
				logic.Rewrite(ct.F, logic.DefaultRewriteOptions())
			}
		})
		return cts, nil
	}
	if named != "" {
		for _, ct := range s.registry {
			if ct.Name == named {
				return []logic.Constraint{ct}, nil
			}
		}
		return nil, fmt.Errorf("unknown constraint %q", named)
	}
	return s.registry, nil
}

// do runs fn on a replica worker inside a replica.do span and notes whether
// the worker adopted a new version on the way.
func (s *inproc) do(parent, i int, fn func(do int, chk *core.Checker)) error {
	var err error
	swaps := s.pool.Swaps()
	sp := s.rec.in(passInproc, parent, i, "replica.do", nil, func(do int) {
		err = s.pool.Do(context.Background(), func(chk *core.Checker, _ uint64) { fn(do, chk) })
	})
	if sp != nil && s.pool.Swaps() != swaps {
		s.adopted[sp.ID] = true
	}
	return err
}

// run replays one op under a root span and checks the answer against the
// oracle's. Warm-up ops carry indices below -1.
func (s *inproc) run(i int, p op) error {
	want := p.Want
	var err, mismatch error
	s.rec.in(passInproc, 0, i, "op:"+p.Tmpl, nil, func(root int) {
		switch {
		case p.Path == "/update":
			mismatch, err = s.update(root, i, p, want)
		case p.Path == "/witnesses":
			mismatch, err = s.witnesses(root, i, p, want)
		case s.coord != nil:
			mismatch, err = s.shardCheck(root, i, p, want)
		default:
			mismatch, err = s.check(root, i, p, want)
		}
	})
	if mismatch != nil {
		s.first.add(fmt.Errorf("in-process op %d (%s): %w", i, p.Tmpl, mismatch))
	}
	return err
}

func (s *inproc) check(root, i int, p op, want expect) (mismatch, err error) {
	var req service.CheckRequest
	s.rec.in(passInproc, root, i, "service.decode", nil, func(int) { err = strictDecode(p.Body, &req) })
	if err != nil {
		return nil, err
	}
	cts, err := s.resolve(root, i, req.Text, "")
	if err != nil {
		return nil, err
	}
	results := make([]core.Result, len(cts))
	err = s.do(root, i, func(do int, chk *core.Checker) {
		// One span for the request's constraints, as one job serves them.
		s.rec.in(passInproc, do, i, "core.check", []*bdd.Kernel{chk.Store().Kernel()}, func(int) {
			for j, ct := range cts {
				results[j] = chk.CheckOneOpts(ct, core.CheckOptions{NoSQLFallback: true})
			}
		})
	})
	if err != nil {
		return nil, err
	}
	resp := service.CheckResponse{Results: make([]service.CheckResult, len(results))}
	for j, res := range results {
		v := want.Verdicts[j]
		if res.Err != nil || res.FellBack || res.Method != core.MethodBDD || res.Violated != v.Violated || res.Constraint.Name != v.Name {
			mismatch = fmt.Errorf("%s: violated=%v method=%q fell_back=%v err=%v, the oracle says %s violated=%v",
				res.Constraint.Name, res.Violated, res.Method, res.FellBack, res.Err, v.Name, v.Violated)
		}
		resp.Results[j] = service.CheckResult{Name: res.Constraint.Name, Violated: res.Violated, Method: string(res.Method), DurationNS: res.Duration.Nanoseconds()}
	}
	if s.checkOps++; s.checkOps%sqlSampleEvery == 0 {
		j := (s.checkOps / sqlSampleEvery) % len(cts)
		var violated bool
		s.rec.in(passInproc, root, i, "sqlengine.exec", nil, func(int) {
			var q *sqlengine.Query
			if q, err = sqlengine.Compile(cts[j], s.chk.Resolver()); err == nil {
				violated, _, err = q.Run()
			}
		})
		if err != nil {
			return nil, err
		}
		if violated != want.Verdicts[j].Violated {
			mismatch = fmt.Errorf("%s: sqlengine says violated=%v, the oracle %v", cts[j].Name, violated, want.Verdicts[j].Violated)
		}
	}
	s.rec.in(passInproc, root, i, "service.encode", nil, func(int) { err = encodeReply(resp) })
	return mismatch, err
}

func (s *inproc) witnesses(root, i int, p op, want expect) (mismatch, err error) {
	var req service.WitnessRequest
	s.rec.in(passInproc, root, i, "service.decode", nil, func(int) { err = strictDecode(p.Body, &req) })
	if err != nil {
		return nil, err
	}
	cts, err := s.resolve(root, i, req.Text, req.Constraint)
	if err != nil {
		return nil, err
	}
	var ws []core.Witness
	var werr error
	err = s.do(root, i, func(do int, chk *core.Checker) {
		s.rec.in(passInproc, do, i, "core.witness", []*bdd.Kernel{chk.Store().Kernel()}, func(int) {
			ws, werr = chk.ViolationWitnessesOpts(cts[0], req.Limit, core.CheckOptions{})
		})
	})
	if err = errors.Join(err, werr); err != nil {
		return nil, err
	}
	if len(ws) != want.Witnesses || cts[0].Name != want.Constraint {
		mismatch = fmt.Errorf("%s: %d witnesses, the oracle says %s has %d", cts[0].Name, len(ws), want.Constraint, want.Witnesses)
	}
	resp := service.WitnessResponse{Constraint: cts[0].Name, Method: string(core.MethodBDD), Witnesses: make([]service.Witness, len(ws))}
	for j, wt := range ws {
		resp.Witnesses[j] = service.Witness{Vars: wt.Vars, Values: wt.Values}
	}
	s.rec.in(passInproc, root, i, "service.encode", nil, func(int) { err = encodeReply(resp) })
	return mismatch, err
}

func (s *inproc) update(root, i int, p op, want expect) (mismatch, err error) {
	var req service.UpdateRequest
	s.rec.in(passInproc, root, i, "service.decode", nil, func(int) { err = strictDecode(p.Body, &req) })
	if err != nil {
		return nil, err
	}
	ups := make([]core.Update, len(req.Updates))
	for j, u := range req.Updates {
		ups[j] = core.Update{Table: u.Table, Op: core.UpdateOp(u.Op), Values: u.Values}
	}
	if i >= 0 {
		s.tuples += len(ups)
	}
	var applied int
	if s.coord != nil {
		s.rec.in(passInproc, root, i, "shard.route", nil, func(int) {
			for _, u := range ups {
				if _, _, rerr := s.part.RouteUpdate(s.cat, u); rerr != nil {
					err = rerr
				}
			}
		})
		if err != nil {
			return nil, err
		}
		s.coordCall(root, i, "shard.update", func() { applied, _, err = s.coord.Update(context.Background(), ups, nil) })
	} else {
		k := s.chk.Store().Kernel()
		s.rec.in(passInproc, root, i, "core.apply", []*bdd.Kernel{k}, func(int) { applied, err = s.chk.Apply(ups) })
		if err != nil {
			return nil, err
		}
		s.epoch++
		if s.st != nil {
			s.walTuples += int64(len(ups))
			s.rec.in(passInproc, root, i, "store.wal_append", nil, func(int) { err = s.st.AppendBatch(s.epoch, ups) })
			if err != nil {
				return nil, err
			}
		}
		var v *replica.Version
		s.rec.in(passInproc, root, i, "replica.freeze", []*bdd.Kernel{k}, func(int) { v, err = replica.NewVersion(s.chk, s.epoch) })
		if err != nil {
			return nil, err
		}
		s.pool.Publish(v)
		if s.sinceSnap++; s.st != nil && s.sinceSnap >= snapshotEvery {
			s.rec.in(passInproc, root, i, "store.snapshot", nil, func(int) { err = s.st.WriteSnapshot(s.chk, s.rulesText, s.epoch) })
			s.sinceSnap = 0
		}
	}
	if err != nil {
		return nil, err
	}
	if applied != want.Applied {
		mismatch = fmt.Errorf("applied %d tuples, want %d", applied, want.Applied)
	}
	s.rec.in(passInproc, root, i, "service.encode", nil, func(int) { err = encodeReply(service.UpdateResponse{Applied: applied}) })
	return mismatch, err
}

func (s *inproc) shardCheck(root, i int, p op, want expect) (mismatch, err error) {
	var req service.CheckRequest
	s.rec.in(passInproc, root, i, "service.decode", nil, func(int) { err = strictDecode(p.Body, &req) })
	if err != nil {
		return nil, err
	}
	cts, err := s.resolve(root, i, req.Text, "")
	if err != nil {
		return nil, err
	}
	s.rec.in(passInproc, root, i, "shard.plan", nil, func(int) {
		for _, ct := range cts {
			if plan := s.coord.PlanFor(ct); plan.Kind != shard.PlanLocal {
				mismatch = fmt.Errorf("%s plans %s, want local", ct.Name, plan)
			}
		}
	})
	var outs []shard.CheckOutcome
	s.coordCall(root, i, "shard.check", func() { outs, err = s.coord.Check(context.Background(), cts, 0, nil) })
	if err != nil {
		return nil, err
	}
	resp := service.CheckResponse{Results: make([]service.CheckResult, len(outs))}
	for j, o := range outs {
		v := want.Verdicts[j]
		if o.Err != "" || o.FellBack || o.Method != s.w.wantMethod() || o.Violated != v.Violated || o.Name != v.Name {
			mismatch = fmt.Errorf("%s: violated=%v method=%q fell_back=%v err=%q, the oracle says %s violated=%v",
				o.Name, o.Violated, o.Method, o.FellBack, o.Err, v.Name, v.Violated)
		}
		resp.Results[j] = service.CheckResult{Name: o.Name, Violated: o.Violated, Method: o.Method, DurationNS: o.DurationNS}
	}
	s.rec.in(passInproc, root, i, "service.encode", nil, func(int) { err = encodeReply(resp) })
	return mismatch, err
}

// runInproc builds the stack, replays the warm-up, settle and measured ops,
// and tears the stack down. It returns the stack for its counters. rec may
// be nil: the replay then records nothing.
func runInproc(w *workload, rec *recorder, dir string) (*inproc, error) {
	s, err := newInproc(w, rec, dir)
	if err != nil {
		return nil, err
	}
	replay := func(ops []op, base int) error {
		for n, p := range ops {
			i := n
			if base < 0 {
				i = base - n // warm-up ops: -2, -3, ...
			}
			if err := s.run(i, p); err != nil {
				return fmt.Errorf("in-process op %d (%s): %w", i, p.Tmpl, err)
			}
		}
		return nil
	}
	err = replay(w.unmeasured(), -2)
	if err == nil {
		before := s.shardKernelSteps()
		err = replay(w.ops(), 0)
		s.shardSteps = s.shardKernelSteps() - before
	}
	if cerr := s.close(); err == nil {
		err = cerr
	}
	return s, err
}
