// http.go is the coordinator's side of the shared HTTP edge
// (internal/service): the adapter that makes a Coordinator a service.Backend
// — so /check, /witnesses, /update, /healthz and /metricsz are the service's
// handlers, with its decode, limits, envelopes and metrics — and the
// coordinator's own /statsz document. Pinned-epoch reads are refused: the
// coordinator has no historical store.
package shard

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/service"
)

// CoordStatsz is the coordinator's /statsz document.
type CoordStatsz struct {
	UptimeMS int64  `json:"uptime_ms"`
	Epoch    uint64 `json:"epoch"`

	// Sharding describes the partition layout.
	ShardKey string `json:"shard_key"`
	Shards   int    `json:"shards"`

	// Workers is one status block per shard.
	Workers []WorkerStatus `json:"workers"`

	// Plans maps each registered constraint to its evaluation strategy.
	Plans map[string]string `json:"plans"`

	// Requests are coordinator-side counters.
	Requests CoordRequestStats `json:"requests"`
}

// CoordRequestStats counts coordinator requests by disposition.
type CoordRequestStats struct {
	Checks         uint64 `json:"checks"`
	Witnesses      uint64 `json:"witnesses"`
	UpdateBatches  uint64 `json:"update_batches"`
	UpdateTuples   uint64 `json:"update_tuples"`
	LocalFanouts   uint64 `json:"local_fanouts"`
	SingleShard    uint64 `json:"single_shard"`
	ResidualChecks uint64 `json:"residual_checks"`
	WorkerFailures uint64 `json:"worker_failures"`
}

// Statsz assembles the /statsz document from atomics and worker Status
// snapshots.
func (c *Coordinator) Statsz() any {
	stats := CoordStatsz{
		UptimeMS: time.Since(c.start).Milliseconds(),
		Epoch:    c.Epoch(),
		ShardKey: c.part.Key().String(),
		Shards:   c.part.Shards(),
		Workers:  make([]WorkerStatus, len(c.workers)),
		Plans:    make(map[string]string, len(c.plans)),
		Requests: CoordRequestStats{
			Checks:         c.nChecks.Load(),
			Witnesses:      c.nWitnesses.Load(),
			UpdateBatches:  c.nUpdateBatches.Load(),
			UpdateTuples:   c.nUpdateTuples.Load(),
			LocalFanouts:   c.nLocalFanouts.Load(),
			SingleShard:    c.nSingleShard.Load(),
			ResidualChecks: c.nResidualChecks.Load(),
			WorkerFailures: c.nWorkerFailures.Load(),
		},
	}
	for i, worker := range c.workers {
		stats.Workers[i] = worker.Status()
	}
	for name, plan := range c.plans {
		stats.Plans[name] = plan.String()
	}
	return stats
}

// coordBackend bends the coordinator's Go API — kept as it is for the
// difftest, experiment and benchmark harnesses — to service.Backend.
// Resolve, Witnesses, Statsz and Metrics are the coordinator's own.
type coordBackend struct{ *Coordinator }

// Backend returns the coordinator as the shared edge sees it.
func (c *Coordinator) Backend() service.Backend { return coordBackend{c} }

// Handler returns the coordinator's HTTP routes: the shared edge over
// Backend, with the coordinator's default request timeout.
func (c *Coordinator) Handler() http.Handler {
	return service.NewHandler(c.Backend(), service.Options{DefaultTimeout: c.opts.DefaultTimeout})
}

func (b coordBackend) Check(ctx context.Context, cts []logic.Constraint, _, budget int, pin uint64, tr *obs.Trace) ([]service.CheckResult, uint64, error) {
	if pin != 0 {
		return nil, 0, fmt.Errorf("%w (the coordinator serves only the current epoch)", service.ErrNoHistory)
	}
	outs, err := b.Coordinator.Check(ctx, cts, budget, tr)
	if err != nil {
		return nil, 0, err
	}
	results := make([]service.CheckResult, len(outs))
	for i, o := range outs {
		results[i] = service.CheckResult{
			Name:           o.Name,
			Violated:       o.Violated,
			Method:         o.Method,
			FellBack:       o.FellBack,
			FallbackReason: o.FallbackReason,
			DurationNS:     o.DurationNS,
			Error:          o.Err,
		}
	}
	return results, b.Epoch(), nil
}

func (b coordBackend) Update(ctx context.Context, ups []core.Update, tr *obs.Trace) (int, error) {
	applied, _, err := b.Coordinator.Update(ctx, ups, tr)
	return applied, err
}
