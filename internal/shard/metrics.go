// metrics.go builds the coordinator's /metricsz rollup: per-shard gauges
// labeled shard="N" plus coordinator-level counters. Every callback reads
// only atomics and published snapshots (worker Status, coordinator
// counters), so a scrape never touches a live kernel — the same safety rule
// the service registry follows.
package shard

import (
	"strconv"
	"time"

	"repro/internal/obs"
)

// Metrics returns the coordinator's registry, built once in NewCoordinator.
func (c *Coordinator) Metrics() *obs.Registry { return c.metrics }

func (c *Coordinator) buildMetrics() *obs.Registry {
	r := obs.NewRegistry()

	r.GaugeFunc("cv_uptime_seconds", "", "Seconds since the coordinator started.",
		func() float64 { return time.Since(c.start).Seconds() })
	r.GaugeFunc("cv_coord_epoch", "", "Coordinator epoch: applied update batches plus one.",
		func() float64 { return float64(c.epoch.Load()) })
	r.GaugeFunc("cv_coord_shards", "", "Number of shard workers.",
		func() float64 { return float64(len(c.workers)) })

	reqHelp := "Coordinator requests by endpoint."
	r.CounterFunc("cv_coord_requests_total", `endpoint="check"`, reqHelp, c.nChecks.Load)
	r.CounterFunc("cv_coord_requests_total", `endpoint="witnesses"`, reqHelp, c.nWitnesses.Load)
	r.CounterFunc("cv_coord_requests_total", `endpoint="update"`, reqHelp, c.nUpdateBatches.Load)

	planHelp := "Checks by evaluation plan."
	r.CounterFunc("cv_coord_plan_checks_total", `plan="local"`, planHelp, c.nLocalFanouts.Load)
	r.CounterFunc("cv_coord_plan_checks_total", `plan="single_shard"`, planHelp, c.nSingleShard.Load)
	r.CounterFunc("cv_coord_plan_checks_total", `plan="residual"`, planHelp, c.nResidualChecks.Load)

	r.CounterFunc("cv_coord_update_tuples_total", "", "Tuples routed through the coordinator.", c.nUpdateTuples.Load)
	r.CounterFunc("cv_coord_worker_failures_total", "", "Shard worker requests that failed.", c.nWorkerFailures.Load)

	for _, w := range c.workers {
		w := w
		label := `shard="` + strconv.Itoa(w.Shard()) + `"`
		r.GaugeFunc("cv_shard_up", label, "1 when the shard worker's last request succeeded.",
			func() float64 {
				if w.Status().Up {
					return 1
				}
				return 0
			})
		r.GaugeFunc("cv_shard_epoch", label, "The shard worker's own epoch.",
			func() float64 { return float64(w.Status().Epoch) })
		r.GaugeFunc("cv_shard_queue_depth", label, "Jobs waiting in the shard's admission queue (in-process workers).",
			func() float64 { return float64(w.Status().QueueDepth) })
		r.GaugeFunc("cv_shard_kernel_live_nodes", label, "Live BDD nodes in the shard kernel as of its last job (in-process workers).",
			func() float64 { return float64(w.Status().KernelLiveNodes) })
		r.CounterFunc("cv_shard_checks_total", label, "Constraint evaluations served by the shard.",
			func() uint64 { return w.Status().Checks })
		r.CounterFunc("cv_shard_updates_total", label, "Tuples applied by the shard.",
			func() uint64 { return w.Status().Updates })
		r.CounterFunc("cv_shard_errors_total", label, "Failed requests against the shard.",
			func() uint64 { return w.Status().Errors })
	}
	return r
}
