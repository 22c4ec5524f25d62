// worker.go is the shard execution layer: the Worker interface the
// coordinator fans out to, and the in-process implementation — a headless
// service.Server over one shard's partition, driven by Go calls where
// HTTPWorker drives the same server over the wire. Both sharded forms
// therefore run one worker: the service's single kernel-owning goroutine
// behind its bounded admission queues, with its backpressure contract
// (enqueue blocks until the caller's deadline, then service.ErrBusy) and its
// BDD→SQL witness drill-down.
package shard

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/service"
)

// CheckOutcome is one constraint's verdict from one worker, or the
// coordinator's merge of several.
type CheckOutcome struct {
	Name           string
	Violated       bool
	Method         string
	FellBack       bool
	FallbackReason string
	DurationNS     int64
	// Err is a per-constraint evaluation error from an otherwise healthy
	// worker; transport-level failures surface as *WorkerError instead.
	Err string
}

// WorkerStatus is a point-in-time snapshot of one worker, safe to read from
// metrics callbacks (all sources are atomics or published snapshots).
type WorkerStatus struct {
	Shard     int    `json:"shard"`
	URL       string `json:"url,omitempty"`
	InProcess bool   `json:"in_process"`
	// Up is false for an HTTP worker whose last request failed.
	Up bool `json:"up"`
	// Epoch is the worker's own epoch: update rounds it has applied (plus
	// one), or the epoch its server last reported.
	Epoch   uint64 `json:"epoch"`
	Checks  uint64 `json:"checks"`
	Updates uint64 `json:"updates"`
	// Errors counts failed requests against this worker.
	Errors uint64 `json:"errors"`
	// QueueDepth/QueueCap describe the admission queues (in-process only).
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap,omitempty"`
	// KernelLiveNodes, KernelOps and KernelNodesAllocated are the shard
	// kernel's counters as of its last completed job (in-process only).
	KernelLiveNodes      int64  `json:"kernel_live_nodes,omitempty"`
	KernelOps            uint64 `json:"kernel_ops,omitempty"`
	KernelNodesAllocated uint64 `json:"kernel_nodes_allocated,omitempty"`
}

// Worker is one shard's execution endpoint. Implementations serialize their
// own operations; the coordinator may call them from multiple goroutines.
type Worker interface {
	Shard() int
	Check(ctx context.Context, cts []logic.Constraint, budget int) ([]CheckOutcome, error)
	Witnesses(ctx context.Context, ct logic.Constraint, limit, budget int) ([]core.Witness, error)
	Update(ctx context.Context, ups []core.Update) (int, error)
	Status() WorkerStatus
	Close()
}

// WorkerError is a transport-level failure against one shard worker: the
// coordinator could not obtain a verdict, so the whole request degrades to
// a partial-result error rather than a silently incomplete merge.
type WorkerError struct {
	Shard int
	URL   string
	Err   error
}

func (e *WorkerError) Error() string {
	if e.URL == "" {
		return fmt.Sprintf("shard %d: %v", e.Shard, e.Err)
	}
	return fmt.Sprintf("shard %d (%s): %v", e.Shard, e.URL, e.Err)
}

func (e *WorkerError) Unwrap() error { return e.Err }

// HTTPStatus tells the shared edge a failed shard is a bad gateway, whatever
// sentinel the failure wraps.
func (e *WorkerError) HTTPStatus() int { return http.StatusBadGateway }

// outcomesOf relabels a worker server's wire results with the coordinator's
// constraint names (ad-hoc text travels under whatever name it parsed to).
func outcomesOf(cts []logic.Constraint, results []service.CheckResult) []CheckOutcome {
	out := make([]CheckOutcome, len(results))
	for i, r := range results {
		out[i] = CheckOutcome{
			Name:           cts[i].Name,
			Violated:       r.Violated,
			Method:         r.Method,
			FellBack:       r.FellBack,
			FallbackReason: r.FallbackReason,
			DurationNS:     r.DurationNS,
			Err:            r.Error,
		}
	}
	return out
}

// serverWorker is the in-process Worker: the Go-call twin of HTTPWorker.
type serverWorker struct {
	shard int
	srv   *service.Server

	checks, updates, failures atomic.Uint64
}

// newServerWorker builds the shard's checker, indexes every table under its
// own name (matching the single-kernel daemon's cold boot), and starts a
// headless server over it: no registry (constraints arrive with each call)
// and no read replicas (the shards are the parallelism).
func newServerWorker(shard int, cat *relation.Catalog, opts Options) (*serverWorker, error) {
	chk := core.New(cat, core.Options{NodeBudget: opts.NodeBudget, RandomSeed: opts.RandomSeed})
	for _, t := range cat.Tables() {
		if _, err := chk.BuildIndex(t.Name(), t.Name(), nil, opts.Method); err != nil {
			return nil, fmt.Errorf("shard %d: index %s: %w", shard, t.Name(), err)
		}
	}
	srv, err := service.New(chk, nil, service.Options{Replicas: -1})
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", shard, err)
	}
	return &serverWorker{shard: shard, srv: srv}, nil
}

func (w *serverWorker) Shard() int { return w.shard }

func (w *serverWorker) Check(ctx context.Context, cts []logic.Constraint, budget int) ([]CheckOutcome, error) {
	// Constraints arrive with each call: none is the headless server's own.
	results, _, err := w.srv.Check(ctx, cts, 0, budget, 0, nil)
	if err != nil {
		w.failures.Add(1)
		return nil, err
	}
	w.checks.Add(uint64(len(cts)))
	return outcomesOf(cts, results), nil
}

func (w *serverWorker) Witnesses(ctx context.Context, ct logic.Constraint, limit, budget int) ([]core.Witness, error) {
	ws, _, err := w.srv.Witnesses(ctx, ct, limit, budget, nil)
	if err != nil {
		w.failures.Add(1)
		return nil, err
	}
	w.checks.Add(1)
	return ws, nil
}

func (w *serverWorker) Update(ctx context.Context, ups []core.Update) (int, error) {
	applied, err := w.srv.Update(ctx, ups, nil)
	if err != nil {
		w.failures.Add(1)
		return applied, err
	}
	w.updates.Add(uint64(len(ups)))
	return applied, nil
}

// Status reads the server's published snapshot; no live kernel is touched.
func (w *serverWorker) Status() WorkerStatus {
	st := w.srv.Stats()
	return WorkerStatus{
		Shard:                w.shard,
		InProcess:            true,
		Up:                   true,
		Epoch:                w.srv.CurrentEpoch(),
		Checks:               w.checks.Load(),
		Updates:              w.updates.Load(),
		Errors:               w.failures.Load(),
		QueueDepth:           st.Queue.ChecksDepth + st.Queue.UpdatesDepth,
		QueueCap:             st.Queue.ChecksCap,
		KernelLiveNodes:      int64(st.PrimaryKernel.LiveNodes),
		KernelOps:            st.PrimaryKernel.Ops,
		KernelNodesAllocated: st.PrimaryKernel.NodesAllocated,
	}
}

func (w *serverWorker) Close() { w.srv.Close() }
