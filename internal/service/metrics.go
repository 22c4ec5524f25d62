package service

// metrics.go builds the server's /metricsz surface: one obs.Registry wired
// to the counters the server already keeps (request atomics, the worker's
// published snapshot, the replica pool's per-worker stats) plus the stage
// latency histograms observed on the request path (the per-endpoint totals
// are the HTTP edge's, http.go). Construction happens once in New;
// every gauge callback reads only atomically-published state (s.snap,
// pool.Stats()), never a live kernel, so scrapes are safe from any
// goroutine.

import (
	"strconv"
	"time"

	"repro/internal/bdd"
	"repro/internal/obs"
	"repro/internal/store"
)

// serverMetrics owns the histograms and counters observed on the hot path.
// Gauges and counters that mirror existing server state are registered as
// callbacks and have no field here.
type serverMetrics struct {
	reg *obs.Registry

	// Per-stage latency, observed by the worker (and the replica dispatch
	// path for queue_wait/eval).
	stQueueWait *obs.Histogram
	stEval      *obs.Histogram
	stSQL       *obs.Histogram
	stWitness   *obs.Histogram
	stApply     *obs.Histogram
	stFreeze    *obs.Histogram

	// Replica-pool job latency, observed inside internal/replica.
	replicaQueueWait, replicaRun *obs.Histogram
}

func newServerMetrics(s *Server) *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{reg: r}

	r.GaugeFunc("cv_uptime_seconds", "", "Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })

	const reqHelp = "Requests accepted, by endpoint."
	r.CounterFunc("cv_requests_total", `endpoint="check"`, reqHelp, s.nChecks.Load)
	r.CounterFunc("cv_requests_total", `endpoint="witnesses"`, reqHelp, s.nWitnesses.Load)
	r.CounterFunc("cv_requests_total", `endpoint="update"`, reqHelp, s.nUpdateJobs.Load)

	const rejHelp = "Requests rejected before running, by reason."
	r.CounterFunc("cv_request_rejects_total", `reason="deadline"`, rejHelp, s.nDeadlineRejects.Load)
	r.CounterFunc("cv_request_rejects_total", `reason="queue"`, rejHelp, s.nQueueRejects.Load)

	r.CounterFunc("cv_update_tuples_total", "", "Tuples applied through the incremental maintenance path.", s.nUpdateTuples.Load)
	r.CounterFunc("cv_update_batches_total", "", "Coalesced update batches applied by the worker.", s.nBatches.Load)

	const stageHelp = "Per-stage request latency in seconds."
	m.stQueueWait = r.Histogram("cv_stage_duration_seconds", `stage="queue_wait"`, stageHelp)
	m.stEval = r.Histogram("cv_stage_duration_seconds", `stage="eval"`, stageHelp)
	m.stSQL = r.Histogram("cv_stage_duration_seconds", `stage="sql"`, stageHelp)
	m.stWitness = r.Histogram("cv_stage_duration_seconds", `stage="witness_enum"`, stageHelp)
	m.stApply = r.Histogram("cv_stage_duration_seconds", `stage="apply"`, stageHelp)
	m.stFreeze = r.Histogram("cv_stage_duration_seconds", `stage="freeze"`, stageHelp)

	// Checker decision counters, read from the worker-published snapshot.
	snapCounter := func(pick func(*snapshot) uint64) func() uint64 {
		return func() uint64 { return pick(s.snap.Load()) }
	}
	const decHelp = "Constraint validations decided, by method."
	r.CounterFunc("cv_checker_decisions_total", `method="bdd"`, decHelp,
		snapCounter(func(sn *snapshot) uint64 { return uint64(sn.checker.BDDChecks) }))
	r.CounterFunc("cv_checker_decisions_total", `method="fd"`, decHelp,
		snapCounter(func(sn *snapshot) uint64 { return uint64(sn.checker.FDFastPath) }))
	r.CounterFunc("cv_checker_decisions_total", `method="sql"`, decHelp,
		snapCounter(func(sn *snapshot) uint64 { return uint64(sn.checker.SQLFallbacks) }))
	r.CounterFunc("cv_checker_errors_total", "", "Constraint validations that failed outright.",
		snapCounter(func(sn *snapshot) uint64 { return uint64(sn.checker.Errors) }))

	const memoHelp = "Registered-constraint verdicts looked up in the verdict memo, by result: hit (answered without evaluation) or miss (evaluated)."
	r.CounterFunc("cv_verdict_memo_total", `result="hit"`, memoHelp, s.memo.hits.Load)
	r.CounterFunc("cv_verdict_memo_total", `result="miss"`, memoHelp, s.memo.misses.Load)

	// Primary-kernel counters, from the same snapshot. Scrapes must never
	// touch the live kernel: it belongs to the worker goroutine.
	registerKernel(r, `kernel="primary"`, func() bdd.Stats { return s.snap.Load().kernel })

	const qHelp = "Admission queue depth (jobs waiting)."
	const qcHelp = "Admission queue capacity."
	r.GaugeFunc("cv_queue_depth", `queue="checks"`, qHelp, func() float64 { return float64(len(s.checks)) })
	r.GaugeFunc("cv_queue_depth", `queue="updates"`, qHelp, func() float64 { return float64(len(s.updates)) })
	r.GaugeFunc("cv_queue_capacity", `queue="checks"`, qcHelp, func() float64 { return float64(cap(s.checks)) })
	r.GaugeFunc("cv_queue_capacity", `queue="updates"`, qcHelp, func() float64 { return float64(cap(s.updates)) })

	if s.pool != nil {
		pool := s.pool
		r.GaugeFunc("cv_replica_pool_size", "", "Replica read-pool workers.",
			func() float64 { return float64(pool.Size()) })
		r.GaugeFunc("cv_replica_epoch", "", "Latest published index version epoch.",
			func() float64 { return float64(pool.Epoch()) })
		r.CounterFunc("cv_replica_swaps_total", "", "Version handoffs completed by replica workers.", pool.Swaps)
		r.CounterFunc("cv_replica_rebuilds_total", "", "Version handoffs that built a fresh replica instead of advancing the worker's own in place.", pool.Rebuilds)
		r.CounterFunc("cv_replica_checks_total", "", "Check requests served on the replica pool.", s.nReplicaChecks.Load)
		r.CounterFunc("cv_replica_witnesses_total", "", "Witness requests served on the replica pool.", s.nReplicaWitness.Load)
		r.CounterFunc("cv_replica_reroutes_total", "", "Constraints rerouted from a replica to the primary for SQL fallback.", s.nReroutes.Load)
		m.replicaQueueWait = r.Histogram("cv_replica_queue_wait_seconds", "", "Replica job submission-to-pickup latency in seconds.")
		m.replicaRun = r.Histogram("cv_replica_run_seconds", "", "Replica job execution time in seconds.")

		// Per-replica kernel counters, from the workers' atomically-published
		// stats. pool.Stats() copies every worker's snapshot; with a handful
		// of workers per pool the per-scrape cost is negligible.
		for i := 0; i < pool.Size(); i++ {
			i := i
			registerKernel(r, `kernel="replica-`+strconv.Itoa(i)+`"`, func() bdd.Stats { return pool.Stats()[i].Kernel })
		}
	}

	if s.st != nil {
		st := s.st
		st.SetMetrics(&store.Metrics{
			WALAppend:     r.Histogram("cv_wal_append_seconds", "", "WAL batch append (and fsync, per policy) latency in seconds."),
			SnapshotWrite: r.Histogram("cv_snapshot_write_seconds", "", "Epoch snapshot write latency in seconds."),
		})
		r.CounterFunc("cv_wal_appends_total", "", "Update batches appended to the WAL.", st.WALAppends)
		r.CounterFunc("cv_wal_bytes_total", "", "Bytes appended to the WAL.", st.WALBytesWritten)
		r.CounterFunc("cv_wal_fsyncs_total", "", "WAL fsync calls issued.", st.Fsyncs)
		r.CounterFunc("cv_wal_errors_total", "", "WAL appends that failed; the affected batches were not acknowledged.", s.nWALErrors.Load)
		r.CounterFunc("cv_snapshot_errors_total", "", "Snapshot writes that failed (the WAL still covers the epochs).", s.nSnapshotErrors.Load)
		r.CounterFunc("cv_recovery_replayed_records_total", "", "WAL records replayed during recovery at boot.", st.ReplayedRecords)
		r.CounterFunc("cv_recovery_replayed_tuples_total", "", "Tuples replayed from the WAL during recovery at boot.", st.ReplayedTuples)
		r.CounterFunc("cv_recovery_torn_tails_total", "", "Torn WAL tails detected and dropped during recovery.", st.TornTails)
		r.CounterFunc("cv_recovery_dropped_bytes_total", "", "Bytes dropped from torn WAL tails during recovery.", st.DroppedTailBytes)
		r.CounterFunc("cv_epoch_checks_total", "", "Point-in-time checks served at historical epochs.", s.nEpochChecks.Load)
		r.GaugeFunc("cv_wal_size_bytes", "", "Current WAL file size in bytes.",
			func() float64 { return float64(st.WALSize()) })
		r.GaugeFunc("cv_snapshot_last_epoch", "", "Epoch of the newest durable snapshot.",
			func() float64 { return float64(st.LastSnapshotEpoch()) })
		r.GaugeFunc("cv_epoch", "", "Last durably acknowledged update epoch.",
			func() float64 { return float64(s.epoch.Load()) })

		// Leader-side replication traffic: any server with a store can feed
		// followers.
		const serveHelp = "Replication artifacts served to followers, by endpoint."
		r.CounterFunc("cv_replication_serves_total", `endpoint="snapshot"`, serveHelp, s.nSnapshotServes.Load)
		r.CounterFunc("cv_replication_serves_total", `endpoint="wal"`, serveHelp, s.nWALServes.Load)
	}

	if s.follow != nil {
		r.GaugeFunc("cv_follower_lag_epochs", "", "Epochs the follower is behind the leader's last reported epoch.",
			func() float64 { return float64(s.followerLag()) })
		r.GaugeFunc("cv_follower_leader_epoch", "", "The leader's last reported epoch.",
			func() float64 { return float64(s.leaderEpoch.Load()) })
		r.GaugeFunc("cv_follower_state", "", "Tail-loop phase: 0 starting, 1 tailing, 2 bootstrapping, 3 retrying.",
			func() float64 { return float64(s.replState.Load()) })
		r.CounterFunc("cv_wal_tail_polls_total", "", "WAL long-polls that reached the leader.", s.nTailPolls.Load)
		r.CounterFunc("cv_wal_tail_errors_total", "", "WAL long-polls that failed (network, decode, or leader error).", s.nTailErrors.Load)
		r.CounterFunc("cv_wal_tail_records_total", "", "WAL records tailed from the leader and applied.", s.nTailRecords.Load)
		r.CounterFunc("cv_wal_tail_tuples_total", "", "Tuples carried by tailed WAL records.", s.nTailTuples.Load)
		r.CounterFunc("cv_snapshot_fetch_total", "", "Snapshot downloads started against the leader.", s.nSnapFetches.Load)
		r.CounterFunc("cv_snapshot_fetch_failures_total", "", "Snapshot downloads that failed or did not verify.", s.nSnapFetchFailures.Load)
		r.CounterFunc("cv_snapshot_fetch_bytes_total", "", "Snapshot bytes streamed from the leader.", s.nSnapFetchBytes.Load)
		r.CounterFunc("cv_follower_rebootstraps_total", "", "Full re-bootstrap cycles (snapshot refetch after pruning or apply failure).", s.nRebootstraps.Load)
	}

	return m
}

// registerKernel registers one kernel's gauge and counter families under the
// given kernel label. view must be safe to call from any goroutine.
func registerKernel(r *obs.Registry, labels string, view func() bdd.Stats) {
	gauge := func(pick func(bdd.Stats) int) func() float64 {
		return func() float64 { return float64(pick(view())) }
	}
	counter := func(pick func(bdd.Stats) uint64) func() uint64 {
		return func() uint64 { return pick(view()) }
	}
	r.GaugeFunc("cv_kernel_live_nodes", labels, "Live BDD nodes, including terminals.",
		gauge(func(ks bdd.Stats) int { return ks.Live }))
	r.GaugeFunc("cv_kernel_peak_nodes", labels, "Peak live BDD nodes observed.",
		gauge(func(ks bdd.Stats) int { return ks.Peak }))
	r.GaugeFunc("cv_kernel_capacity_nodes", labels, "Allocated node-table slots.",
		gauge(func(ks bdd.Stats) int { return ks.Capacity }))
	r.GaugeFunc("cv_kernel_cache_entries", labels, "Per-operation cache entries.",
		gauge(func(ks bdd.Stats) int { return ks.CacheEntries }))
	r.CounterFunc("cv_kernel_gc_runs_total", labels, "Completed kernel garbage collections.",
		counter(func(ks bdd.Stats) uint64 { return uint64(ks.GCRuns) }))
	r.CounterFunc("cv_kernel_ops_total", labels, "Recursive apply steps executed.",
		counter(func(ks bdd.Stats) uint64 { return ks.Ops }))
	r.CounterFunc("cv_kernel_cache_hits_total", labels, "Operation-cache hits.",
		counter(func(ks bdd.Stats) uint64 { return ks.CacheHits }))
	r.CounterFunc("cv_kernel_nodes_allocated_total", labels, "Nodes allocated since kernel creation (monotonic).",
		counter(func(ks bdd.Stats) uint64 { return ks.Allocs }))
	// The three operation caches are sized independently; a per-op hit rate
	// says which one is earning its memory. Lifetime ratio, 0 until traffic.
	const hitHelp = "Operation-cache hit rate since kernel creation, by operation."
	rate := func(pick func(bdd.Stats) (hits, lookups uint64)) func() float64 {
		return func() float64 {
			if hits, lookups := pick(view()); lookups > 0 {
				return float64(hits) / float64(lookups)
			}
			return 0
		}
	}
	r.GaugeFunc("cv_kernel_cache_hit_rate", labels+`,op="apply"`, hitHelp,
		rate(func(ks bdd.Stats) (uint64, uint64) { return ks.ApplyHits, ks.ApplyLookups }))
	r.GaugeFunc("cv_kernel_cache_hit_rate", labels+`,op="quant"`, hitHelp,
		rate(func(ks bdd.Stats) (uint64, uint64) { return ks.QuantHits, ks.QuantLookups }))
	r.GaugeFunc("cv_kernel_cache_hit_rate", labels+`,op="replace"`, hitHelp,
		rate(func(ks bdd.Stats) (uint64, uint64) { return ks.ReplaceHits, ks.ReplaceLookups }))
}
