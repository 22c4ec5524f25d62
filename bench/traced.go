package main

// traced.go is the per-layer run (-trace 1). End-to-end metrics are measured
// with tracing off (e2e.go); this run replays the same op list three times —
// against a daemon untraced, against a fresh daemon with ?trace=1, and
// in-process under the harness's own spans — and derives one number per
// layer. The layer -> end-to-end table is in README.md.

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/service"
	"repro/internal/shard"
)

// layerUnits lists the per-layer metrics in report order with their units.
var layerUnits = []struct{ name, unit string }{
	{"relation.load_ms", "ms"},
	{"ordering.choose_ms", "ms"},
	{"index.build_ms", "ms"},
	{"index.build_nodes", "count"},
	{"index.apply_us_per_tuple", "us"},
	{"core.apply_ms_per_batch", "ms"},
	{"logic.parse_us_per_op", "us"},
	{"logic.rewrite_us_per_op", "us"},
	{"bdd.steps_per_op", "count"},
	{"bdd.apply_hit_rate", "%"},
	{"bdd.quant_hit_rate", "%"},
	{"bdd.replace_hit_rate", "%"},
	{"bdd.allocs_per_op", "count"},
	{"bdd.gc_runs", "count"},
	{"bdd.live_nodes_peak", "count"},
	{"core.check_ms_per_op", "ms"},
	{"core.witness_ms_per_op", "ms"},
	{"core.fd_fast_path_share", "%"},
	{"core.fallback_share", "%"},
	{"sqlengine.exec_ms_per_op", "ms"},
	{"replica.freeze_ms", "ms"},
	{"replica.adopt_ms", "ms"},
	{"replica.do_wait_us", "us"},
	{"replica.swaps", "count"},
	{"service.queue_wait_us", "us"},
	{"service.edge_us_per_op", "us"},
	{"service.decode_us_per_op", "us"},
	{"service.encode_us_per_op", "us"},
	{"service.unattributed_us_per_op", "us"},
	{"service.rejects", "count"},
	{"store.wal_append_us_per_batch", "us"},
	{"store.wal_bytes_per_tuple", "count"},
	{"store.snapshot_ms", "ms"},
	{"store.snapshot_bytes", "count"},
	{"store.recover_ms", "ms"},
	{"shard.plan_us_per_op", "us"},
	{"shard.check_ms_per_op", "ms"},
	{"shard.overhead_ms_per_op", "ms"},
	{"shard.route_us_per_tuple", "us"},
	{"shard.update_ms_per_batch", "ms"},
	{"shard.worker_skew", "ratio"},
	{"client.primary_p50_raw_ms", "ms"},
	{"client.primary_p95_ms", "ms"},
	{"client.primary_p99_ms", "ms"},
	{"client.aux_p95_ms", "ms"},
	{"client.slice_spread_pct", "%"},
	{"proc.cpu_ms_per_op", "ms"},
	{"host.calib_ms_p50", "ms"},
	{"host.calib_spread_pct", "%"},
	{"host.mem_ms_p50", "ms"},
	{"host.mem_spread_pct", "%"},
	{"trace.overhead_pct", "%"},
	// The request clocks of the untraced pass (e2e.go: clockUnits).
	{"primary_p50_ms", "ms"},
	{"aux_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// daemonFacts is what only a live daemon can say about a pass.
type daemonFacts struct {
	cpuMS   float64 // daemon CPU over the measured phase
	swaps   float64 // replica version adoptions since boot
	rejects float64
	checker service.CheckerStats // movement over the measured phase
}

// daemonPass boots a fresh daemon, warms it up and replays the measured
// slices, recording the daemon's spans when traced.
func daemonPass(e *env, w *workload, seq int, traced bool, rec *recorder) (*pass, *daemonFacts, error) {
	d, _, err := bootWarm(e, w, seq)
	if err != nil {
		return nil, nil, err
	}
	defer d.stop()
	if err := replay(d, w, w.Settle...); err != nil {
		return nil, nil, err
	}
	facts := &daemonFacts{}
	var before service.StatszResponse
	if w.Shards == 0 {
		if err := d.getJSON("/statsz", &before); err != nil {
			return nil, nil, err
		}
	}
	cpu0, err := d.cpuTicks()
	if err != nil {
		return nil, nil, err
	}
	p, err := measure(d, w, traced)
	if err != nil {
		return nil, nil, err
	}
	cpu1, err := d.cpuTicks()
	if err != nil {
		return nil, nil, err
	}
	facts.cpuMS = (cpu1 - cpu0) * 1000 / clockTicksPerSecond
	if w.Shards > 0 {
		var st shard.CoordStatsz
		if err := d.getJSON("/statsz", &st); err != nil {
			return nil, nil, err
		}
		facts.rejects = float64(st.Requests.WorkerFailures)
	} else {
		var st service.StatszResponse
		if err := d.getJSON("/statsz", &st); err != nil {
			return nil, nil, err
		}
		facts.swaps = float64(st.Replication.Swaps)
		facts.rejects = float64(st.Requests.DeadlineRejects + st.Requests.QueueRejects)
		facts.checker = service.CheckerStats{
			BDDChecks:    st.Checker.BDDChecks - before.Checker.BDDChecks,
			FDFastPath:   st.Checker.FDFastPath - before.Checker.FDFastPath,
			SQLFallbacks: st.Checker.SQLFallbacks - before.Checker.SQLFallbacks,
		}
	}
	if traced {
		for i, s := range p.all() {
			rec.addDaemon(i, "op:"+s.op.Tmpl, s.sent, s.latency, s.trace)
		}
	}
	return p, facts, nil
}

// clockTicksPerSecond is USER_HZ, the unit of /proc/<pid>/stat CPU fields;
// it is 100 on every Linux the toolchain supports.
const clockTicksPerSecond = 100

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced produces the per-layer metrics of one workload.
func runTraced(e *env, w *workload) (*outcome, error) {
	rec := newRecorder()
	untraced, facts, err := daemonPass(e, w, 0, false, nil)
	if err != nil {
		return nil, err
	}
	tracedPass, _, err := daemonPass(e, w, 1, true, rec)
	if err != nil {
		return nil, err
	}
	in, err := runInproc(w, rec, filepath.Join(e.runDir, w.Name+"-inproc"))
	if err != nil {
		return nil, err
	}
	rec.finish()
	if err := rec.checkSums(); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(e.root, "bench", "out", "trace-"+w.Name+".jsonl")
	if err := rec.write(tracePath); err != nil {
		return nil, err
	}

	ops := float64(len(w.ops()))
	v := map[string]float64{}

	// Set-up layers, from the in-process build.
	v["relation.load_ms"] = meanMS(rec.pick(passInproc, "relation.load", false))
	v["ordering.choose_ms"] = meanMS(rec.pick(passInproc, "ordering.choose", false))
	// One index per kernel: the shards' builds add up.
	v["index.build_ms"] = ms(totalDur(rec.pick(passInproc, "index.build", false)))
	v["index.build_nodes"] = float64(in.nodes)

	// The kernel-bearing spans of the measured ops.
	var k kernelDelta
	for _, sp := range rec.spans {
		if sp.Pass == passInproc && sp.Op >= 0 && sp.Kernel != nil {
			k.add(sp.Kernel)
		}
	}
	v["bdd.steps_per_op"] = float64(k.Ops) / ops
	v["bdd.allocs_per_op"] = float64(k.Allocs) / ops
	v["bdd.gc_runs"] = float64(k.GCRuns)
	v["bdd.live_nodes_peak"] = float64(k.Peak)
	v["bdd.apply_hit_rate"] = pct(float64(k.ApplyHits), float64(k.ApplyLookups))
	v["bdd.quant_hit_rate"] = pct(float64(k.QuantHits), float64(k.QuantLookups))
	v["bdd.replace_hit_rate"] = pct(float64(k.ReplaceHits), float64(k.ReplaceLookups))

	applies := rec.pick(passInproc, "core.apply", true)
	v["index.apply_us_per_tuple"] = div(us(totalDur(applies)), float64(in.tuples))
	v["logic.parse_us_per_op"] = us(totalDur(rec.pick(passInproc, "logic.parse", true))) / ops
	v["logic.rewrite_us_per_op"] = us(totalDur(rec.pick(passInproc, "logic.rewrite", true))) / ops

	// core: time inside the checker per op that called it.
	checkOps, witnessOps, updateOps := 0.0, 0.0, 0.0
	for _, p := range w.ops() {
		switch p.Path {
		case "/check":
			checkOps++
		case "/witnesses":
			witnessOps++
		default:
			updateOps++
		}
	}
	v["core.apply_ms_per_batch"] = div(ms(totalDur(applies)), updateOps)
	v["core.check_ms_per_op"] = div(ms(totalDur(rec.pick(passInproc, "core.check", true))), checkOps)
	v["core.witness_ms_per_op"] = div(ms(totalDur(rec.pick(passInproc, "core.witness", true))), witnessOps)
	if w.Shards > 0 {
		// The coordinator's /statsz has no checker block; the in-process
		// shard checkers made the same decisions.
		st := in.shardStats()
		facts.checker = service.CheckerStats{BDDChecks: st.BDDChecks, FDFastPath: st.FDFastPath, SQLFallbacks: st.SQLFallbacks}
	}
	decided := float64(facts.checker.BDDChecks + facts.checker.FDFastPath + facts.checker.SQLFallbacks)
	v["core.fd_fast_path_share"] = pct(float64(facts.checker.FDFastPath), decided)
	v["core.fallback_share"] = pct(float64(facts.checker.SQLFallbacks), decided)
	v["sqlengine.exec_ms_per_op"] = meanMS(rec.pick(passInproc, "sqlengine.exec", true))

	// replica: a Do's self time is its wait for a worker — or, when the
	// worker had a new version to adopt first, the adoption.
	var adopt, wait []*span
	for _, sp := range rec.pick(passInproc, "replica.do", true) {
		if in.adopted[sp.ID] {
			adopt = append(adopt, sp)
		} else {
			wait = append(wait, sp)
		}
	}
	v["replica.freeze_ms"] = meanMS(rec.pick(passInproc, "replica.freeze", false))
	v["replica.adopt_ms"] = div(ms(totalSelf(adopt)), float64(len(adopt)))
	v["replica.do_wait_us"] = div(us(totalSelf(wait)), float64(len(wait)))
	v["replica.swaps"] = facts.swaps

	// service: the daemon's own spans of the traced pass, and the harness's
	// JSON work on the wire types.
	var edge, unattributed time.Duration
	servers := rec.pick("daemon", "server", true)
	for _, sp := range rec.spans {
		if sp.Pass == "daemon" && sp.Parent == 0 && sp.Op >= 0 {
			edge += time.Duration(sp.SelfNS)
		}
	}
	unattributed = totalSelf(servers)
	tracedOps := float64(len(servers))
	v["service.queue_wait_us"] = div(us(totalDur(rec.pick("daemon", "queue_wait", true))), tracedOps)
	v["service.edge_us_per_op"] = div(us(edge), tracedOps)
	v["service.unattributed_us_per_op"] = div(us(unattributed), tracedOps)
	v["service.decode_us_per_op"] = us(totalDur(rec.pick(passInproc, "service.decode", true))) / ops
	v["service.encode_us_per_op"] = us(totalDur(rec.pick(passInproc, "service.encode", true))) / ops
	v["service.rejects"] = facts.rejects

	// store: the durable workload only.
	if in.st != nil {
		appends := rec.pick(passInproc, "store.wal_append", true)
		v["store.wal_append_us_per_batch"] = div(us(totalDur(appends)), float64(len(appends)))
		v["store.wal_bytes_per_tuple"] = div(float64(in.walBytes), float64(in.walTuples))
		v["store.snapshot_ms"] = meanMS(rec.pick(passInproc, "store.snapshot", false))
		v["store.snapshot_bytes"] = float64(in.snapshotBytes)
		v["store.recover_ms"] = meanMS(rec.pick(passInproc, "store.recover", false))
	}

	// shard: the coordinator's plan/check/update calls in-process, and the
	// per-shard spans the daemon's coordinator reports.
	if w.Shards > 0 {
		plans := rec.pick(passInproc, "shard.plan", true)
		v["shard.plan_us_per_op"] = div(us(totalDur(plans)), float64(len(plans)))
		v["shard.check_ms_per_op"] = meanMS(rec.pick(passInproc, "shard.check", true))
		v["shard.route_us_per_tuple"] = div(us(totalDur(rec.pick(passInproc, "shard.route", true))), float64(in.tuples))
		v["shard.update_ms_per_batch"] = meanMS(rec.pick(passInproc, "shard.update", true))
		overhead, skew, n := shardSpans(tracedPass)
		v["shard.overhead_ms_per_op"] = div(ms(overhead), n)
		v["shard.worker_skew"] = div(skew, n)
	}

	// client, proc, host: context for reading the run.
	all := untraced.all()
	prim := latencies(all, classPrimary)
	v["client.primary_p50_raw_ms"] = quantile(prim, 0.5)
	v["client.primary_p95_ms"] = quantile(prim, 0.95)
	v["client.primary_p99_ms"] = quantile(prim, 0.99)
	v["client.aux_p95_ms"] = quantile(latencies(all, classAux), 0.95)
	v["client.slice_spread_pct"] = spreadPct(untraced.sliceMedians(classPrimary))
	v["proc.cpu_ms_per_op"] = facts.cpuMS / ops
	calib := durationsMS(untraced.calib)
	v["host.calib_ms_p50"] = quantile(calib, 0.5)
	v["host.calib_spread_pct"] = spreadPct(calib)
	mem := durationsMS(untraced.mem)
	v["host.mem_ms_p50"] = quantile(mem, 0.5)
	v["host.mem_spread_pct"] = spreadPct(mem)
	for name, val := range untraced.clocks() {
		v[name] = val
	}
	v["trace.overhead_pct"] = 100 * (div(quantile(latencies(tracedPass.all(), classPrimary), 0.5), v["client.primary_p50_raw_ms"]) - 1)

	out := &outcome{metrics: map[string]metric{}}
	for _, m := range layerUnits {
		out.metrics[m.name] = metric{Value: v[m.name], Unit: m.unit}
	}
	for _, p := range []*pass{untraced, tracedPass} {
		a, f, _ := p.counts()
		out.attempted += a
		out.failed += f
		if out.firstErr == nil {
			out.firstErr = p.first.err
		}
	}
	out.attempted += len(w.ops())
	out.failed += in.first.n
	if out.firstErr == nil {
		out.firstErr = in.first.err
	}
	rel, _ := filepath.Rel(e.root, tracePath)
	out.notes = append(out.notes,
		fmt.Sprintf("three passes of %d ops (daemon untraced, daemon ?trace=1, in-process), failed %d; %d spans -> %s", len(w.ops()), out.failed, len(rec.spans), rel),
		"self times sum to every root span within 1 %",
		breakdown(v, untraced))
	return out, nil
}

// shardSpans sums, over the traced pass's scatter-gather checks, the
// coordinator's time beyond its slowest shard and the slowest/fastest shard
// ratio.
func shardSpans(p *pass) (overhead time.Duration, skew float64, n float64) {
	for _, s := range p.all() {
		if s.trace == nil || s.op.Path != "/check" {
			continue
		}
		var slow, fast int64
		for _, sp := range s.trace.Spans {
			if !strings.HasPrefix(sp.Name, "shard") {
				continue
			}
			if sp.DurationNS > slow {
				slow = sp.DurationNS
			}
			if fast == 0 || sp.DurationNS < fast {
				fast = sp.DurationNS
			}
		}
		if fast == 0 {
			continue
		}
		overhead += time.Duration(s.trace.TotalNS - slow)
		skew += float64(slow) / float64(fast)
		n++
	}
	return
}

// spreadPct is (max - min) / median of vals, in percent.
func spreadPct(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	med := quantile(vals, 0.5)
	return pct(vals[len(vals)-1]-vals[0], med)
}

// breakdown is the one-line summary of where a primary op's time goes.
func breakdown(v map[string]float64, untraced *pass) string {
	p50 := untraced.sliceLatency(classPrimary)
	edge := v["service.edge_us_per_op"] + v["service.queue_wait_us"]
	return fmt.Sprintf("primary_p50 %.3f ms: edge+queue %.0f us (%.1f %%), kernel %.0f steps/op, parse+rewrite %.0f us, checker %.3f ms/check op",
		p50, edge, pct(edge/1e3, p50), v["bdd.steps_per_op"], v["logic.parse_us_per_op"]+v["logic.rewrite_us_per_op"], v["core.check_ms_per_op"])
}
