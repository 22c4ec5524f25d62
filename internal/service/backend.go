package service

// backend.go is the seam between the HTTP edge (http.go) and whatever
// evaluates constraints behind it: the Backend interface the edge's handlers
// call, the constraint Registry both implementations resolve against, the
// typed errors the edge maps to statuses, and *Server's side of the
// interface. shard.Coordinator implements Backend too, so a request meets
// the same decode, limits, envelopes and metrics whichever daemon form
// serves it.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/obs"
)

// Backend is what the edge needs from a constraint-checking daemon. Every
// method runs on handler goroutines and must be safe for concurrent use.
type Backend interface {
	// Resolve maps a request's constraint names and inline declarations to
	// constraints, and says how many of them, from the front, are the
	// registry's own (see Registry.Resolve).
	Resolve(names []string, text string) (cts []logic.Constraint, registered int, err error)
	// Check validates cts and reports the epoch the verdicts hold at.
	// registered is Resolve's count for cts, zero for constraints that did not
	// come through it. pin is the request's ?epoch=N; zero reads the live
	// state.
	Check(ctx context.Context, cts []logic.Constraint, registered, budget int, pin uint64, tr *obs.Trace) ([]CheckResult, uint64, error)
	// Witnesses enumerates up to limit (positive) violating bindings of ct
	// and names the method that produced them.
	Witnesses(ctx context.Context, ct logic.Constraint, limit, budget int, tr *obs.Trace) ([]core.Witness, string, error)
	// Update applies the batch in order; on error, applied counts the leading
	// tuples that took effect.
	Update(ctx context.Context, ups []core.Update, tr *obs.Trace) (applied int, err error)
	// Statsz is the /statsz document.
	Statsz() any
	// Metrics is the registry behind /metricsz; the edge adds its own
	// families to it.
	Metrics() *obs.Registry
}

// DefaultWitnessLimit bounds /witnesses replies that carry no positive limit.
const DefaultWitnessLimit = 10

// NotLeaderError refuses a write on a read-only follower: its state is
// defined by the leader's log, and a local write would fork it. The edge
// answers 421 naming Leader.
type NotLeaderError struct{ Leader string }

func (e *NotLeaderError) Error() string { return "read-only follower: send updates to the leader" }

// Registry is the set of named constraints a Backend serves, in
// registration order. It is immutable after NewRegistry.
type Registry struct {
	byName map[string]logic.Constraint
	names  []string
}

// NewRegistry indexes cts by name, refusing duplicates.
func NewRegistry(cts []logic.Constraint) (*Registry, error) {
	r := &Registry{byName: make(map[string]logic.Constraint, len(cts))}
	for _, ct := range cts {
		if _, dup := r.byName[ct.Name]; dup {
			return nil, fmt.Errorf("service: duplicate constraint %q", ct.Name)
		}
		r.byName[ct.Name] = ct
		r.names = append(r.names, ct.Name)
	}
	return r, nil
}

// Constraints lists the registered constraint names in registry order.
func (r *Registry) Constraints() []string { return append([]string(nil), r.names...) }

// Lookup returns the registered constraint of that name.
func (r *Registry) Lookup(name string) (logic.Constraint, bool) {
	ct, ok := r.byName[name]
	return ct, ok
}

// Resolve maps a request's constraint names (and optional inline
// declarations) to constraints, names first; with neither, the whole
// registry is selected. The leading registered entries of cts are the
// registry's own constraints; the rest are the request's declarations, which
// may carry a registered name over another body (a coordinator sends its
// workers decomposed formulas under the names both were booted with). Only
// here is the difference known, so it travels with cts from here.
func (r *Registry) Resolve(names []string, text string) (cts []logic.Constraint, registered int, err error) {
	for _, name := range names {
		ct, ok := r.byName[name]
		if !ok {
			return nil, 0, fmt.Errorf("%w: %q", ErrUnknownConstraint, name)
		}
		cts = append(cts, ct)
	}
	registered = len(cts)
	if text != "" {
		parsed, err := logic.ParseConstraints(text)
		if err != nil {
			return nil, 0, err
		}
		cts = append(cts, parsed...)
	}
	if len(cts) == 0 {
		for _, name := range r.names {
			cts = append(cts, r.byName[name])
		}
		registered = len(cts)
	}
	return cts, registered, nil
}

// Check implements Backend: a live read goes to the verdict memo, the
// replica pool or the primary worker, and is labelled with the epoch of the
// version that answered it; any other pin is answered from the durability
// store (history.go), which also rejects pins it cannot serve.
func (s *Server) Check(ctx context.Context, cts []logic.Constraint, registered, budget int, pin uint64, tr *obs.Trace) ([]CheckResult, uint64, error) {
	s.nChecks.Add(1)
	var results []core.Result
	var epoch uint64
	if pin == 0 || (s.st != nil && pin == s.epoch.Load()) {
		if err := s.stalenessErr(); err != nil {
			return nil, 0, err
		}
		rep, err := s.submitCheck(ctx, checkSpec{cts: cts, registered: registered, budget: budget}, tr)
		if err != nil {
			return nil, 0, err
		}
		results, epoch = rep.results, rep.epoch
	}
	if pin != 0 && pin != epoch {
		// A pin below the current epoch — or the current one, overtaken by an
		// update before the live read was dispatched — is history.
		histStart := tr.Begin()
		var err error
		results, err = s.checkAtEpoch(ctx, pin, cts, budget)
		tr.Span("epoch_check", histStart)
		if err != nil {
			return nil, 0, err
		}
		epoch = pin
	}
	if s.st == nil {
		epoch = 0 // epochs name durable states, and there are none
	}
	out := make([]CheckResult, len(results))
	for i, res := range results {
		out[i] = ResultOf(res)
	}
	return out, epoch, nil
}

// ResultOf flattens one validation into its wire form.
func ResultOf(res core.Result) CheckResult {
	out := CheckResult{
		Name:       res.Constraint.Name,
		Violated:   res.Violated,
		Method:     string(res.Method),
		FellBack:   res.FellBack,
		DurationNS: res.Duration.Nanoseconds(),
	}
	if res.FallbackReason != nil {
		out.FallbackReason = res.FallbackReason.Error()
	}
	if res.Err != nil {
		out.Error = res.Err.Error()
		out.Method = ""
	}
	return out
}

// Witnesses implements Backend.
func (s *Server) Witnesses(ctx context.Context, ct logic.Constraint, limit, budget int, tr *obs.Trace) ([]core.Witness, string, error) {
	s.nWitnesses.Add(1)
	if limit <= 0 {
		limit = DefaultWitnessLimit // a non-positive limit would queue a plain check
	}
	if err := s.stalenessErr(); err != nil {
		return nil, "", err
	}
	rep, err := s.submitCheck(ctx, checkSpec{cts: []logic.Constraint{ct}, budget: budget, witnessLimit: limit}, tr)
	if err != nil {
		return nil, "", err
	}
	return rep.witnesses, string(rep.witnessMethod), nil
}

// Update implements Backend: the batch is queued for the worker, which
// acknowledges it only once it is logged and published.
func (s *Server) Update(ctx context.Context, ups []core.Update, tr *obs.Trace) (int, error) {
	s.nUpdateJobs.Add(1)
	if s.follow != nil {
		return 0, &NotLeaderError{Leader: s.follow.URL}
	}
	return s.submitUpdate(ctx, ups, tr)
}

// Metrics implements Backend.
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }

// Statsz implements Backend.
func (s *Server) Statsz() any { return s.Stats() }

// kernelStatsOf renders a published kernel view for /statsz.
func kernelStatsOf(kv bdd.Stats) KernelStats {
	return KernelStats{
		LiveNodes:      kv.Live,
		PeakNodes:      kv.Peak,
		Capacity:       kv.Capacity,
		Vars:           kv.Vars,
		Budget:         kv.Budget,
		GCRuns:         kv.GCRuns,
		Ops:            kv.Ops,
		CacheHits:      kv.CacheHits,
		CacheEntries:   kv.CacheEntries,
		NodesAllocated: kv.Allocs,
	}
}

// Stats assembles the /statsz document from the worker-published snapshot,
// the replica pool's per-worker stats and the request atomics. No live
// kernel is touched.
func (s *Server) Stats() StatszResponse {
	snap := s.snap.Load()
	cs := snap.checker
	primary := kernelStatsOf(snap.kernel)
	agg := primary
	repl := ReplicationStats{
		ReplicaChecks:    s.nReplicaChecks.Load(),
		ReplicaWitnesses: s.nReplicaWitness.Load(),
		Reroutes:         s.nReroutes.Load(),
	}
	if s.pool != nil {
		repl.Replicas = s.pool.Size()
		repl.Epoch = s.pool.Epoch()
		repl.Swaps = s.pool.Swaps()
		repl.Rebuilds = s.pool.Rebuilds()
		for _, ws := range s.pool.Stats() {
			wk := kernelStatsOf(ws.Kernel)
			repl.Workers = append(repl.Workers, ReplicaWorkerStats{
				Worker: ws.Worker, Epoch: ws.Epoch, Jobs: ws.Jobs, Kernel: wk,
			})
			agg.LiveNodes += wk.LiveNodes
			agg.PeakNodes += wk.PeakNodes
			agg.Capacity += wk.Capacity
			agg.GCRuns += wk.GCRuns
			agg.Ops += wk.Ops
			agg.CacheHits += wk.CacheHits
			agg.CacheEntries += wk.CacheEntries
			agg.NodesAllocated += wk.NodesAllocated
			cs.BDDChecks += ws.Checker.BDDChecks
			cs.FDFastPath += ws.Checker.FDFastPath
			cs.SQLFallbacks += ws.Checker.SQLFallbacks
			cs.Errors += ws.Checker.Errors
		}
	}
	decided := cs.BDDChecks + cs.FDFastPath + cs.SQLFallbacks
	rate := 0.0
	if decided > 0 {
		rate = float64(cs.SQLFallbacks) / float64(decided)
	}
	resp := StatszResponse{
		UptimeMS: time.Since(s.started).Milliseconds(),
		Queue: QueueStats{
			ChecksDepth:  len(s.checks),
			ChecksCap:    cap(s.checks),
			UpdatesDepth: len(s.updates),
			UpdatesCap:   cap(s.updates),
		},
		Requests: RequestStats{
			Checks:          s.nChecks.Load(),
			Witnesses:       s.nWitnesses.Load(),
			UpdateJobs:      s.nUpdateJobs.Load(),
			UpdateTuples:    s.nUpdateTuples.Load(),
			UpdateBatches:   s.nBatches.Load(),
			DeadlineRejects: s.nDeadlineRejects.Load(),
			QueueRejects:    s.nQueueRejects.Load(),
		},
		Checker: CheckerStats{
			BDDChecks:    cs.BDDChecks,
			FDFastPath:   cs.FDFastPath,
			SQLFallbacks: cs.SQLFallbacks,
			Errors:       cs.Errors,
			FallbackRate: rate,
			MemoHits:     s.memo.hits.Load(),
			MemoMisses:   s.memo.misses.Load(),
		},
		Kernel:        agg,
		PrimaryKernel: primary,
		Replication:   repl,
		Indices:       snap.indices,
		Tables:        snap.tables,
		Constraints:   s.Constraints(),
	}
	if s.st != nil {
		resp.Epoch = s.epoch.Load()
		st := s.st.Status()
		resp.Durability = &st
	}
	resp.Follower = s.followerStats()
	return resp
}
