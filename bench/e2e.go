package main

// e2e.go measures the end-to-end metrics of one workload: three cold boots
// (the third stays up), then the measured slices with tracing off.

import (
	"fmt"
	"path/filepath"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eUnits lists the gated end-to-end metrics — the end_to_end block of
// BENCHMARK.json — in report order with their units.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"kernel_kops_per_op", "kops/op"},
	{"wire_kb_per_op", "kB"},
	{"rss_peak_mb", "MB"},
}

// clockUnits lists the request clocks. They are measured and printed by
// every run, but this host cannot repeat them within the 10 % the issue
// bounds them by (README.md), so they are reported unresolved: not in the
// end_to_end block, and in the result line only of the traced run, among the
// per-layer metrics.
var clockUnits = []struct{ name, unit string }{
	{"primary_p50_ms", "ms"},
	{"aux_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// clocks reduces a pass to the request clocks.
func (p *pass) clocks() map[string]float64 {
	return map[string]float64{
		"primary_p50_ms": p.sliceLatency(classPrimary),
		"aux_p50_ms":     p.sliceLatency(classAux),
		"ops_per_s":      quantile(p.sliceRates(), 0.75),
	}
}

// outcome is what one run of one workload reports.
type outcome struct {
	// metrics go into the result line; ungated are printed beside them.
	metrics   map[string]metric
	ungated   map[string]metric
	attempted int
	failed    int
	firstErr  error
	// context lines for the human-readable report
	notes []string
}

const bootsPerRun = 3

// bootWarm boots a daemon and replays the warm-up slice. It returns the
// daemon and the set-up time: spawn of the prebuilt daemon -> /healthz OK ->
// warm-up slice completed. The inputs and the reference answers exist before
// the spawn, so the time holds the daemon's work and the warm-up requests
// only.
func bootWarm(e *env, w *workload, seq int) (*daemon, time.Duration, error) {
	d, spawned, err := e.boot(w, seq)
	if err != nil {
		return nil, 0, err
	}
	if err := replay(d, w, w.Warmup); err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, time.Since(spawned), nil
}

// runE2E produces the end-to-end metrics of one workload.
func runE2E(e *env, w *workload) (*outcome, error) {
	var setups, bootRSS []float64
	var d *daemon
	for i := 0; i < bootsPerRun; i++ {
		if d != nil {
			d.stop()
		}
		var setup time.Duration
		var err error
		if d, setup, err = bootWarm(e, w, i); err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		kb, err := d.peakRSSKB()
		if err != nil {
			d.stop()
			return nil, err
		}
		bootRSS = append(bootRSS, kb/1e3)
	}
	defer d.stop()
	if err := replay(d, w, w.Settle...); err != nil {
		return nil, err
	}
	p, err := measure(d, w, false)
	if err != nil {
		return nil, err
	}
	attempted, failed, bytes := p.counts()
	rss, err := d.peakRSSKB()
	if err != nil {
		return nil, err
	}
	d.stop()
	kernelOps := p.kernelOps
	if w.Shards > 0 {
		// The sharded daemon exposes no kernel counters, so the count is
		// taken on internal/shard's coordinator run in-process over workers
		// whose kernels the harness can read (inproc.go).
		in, err := runInproc(w, nil, filepath.Join(e.runDir, w.Name+"-inproc"))
		if err != nil {
			return nil, err
		}
		if in.first.n > 0 {
			return nil, fmt.Errorf("in-process coordinator: %d answers disagree with the oracle, first: %w", in.first.n, in.first.err)
		}
		kernelOps = in.shardSteps
	}
	out := &outcome{attempted: attempted, failed: failed, firstErr: p.first.err, metrics: map[string]metric{}, ungated: map[string]metric{}}
	vals := map[string]float64{
		"setup_s":            quantile(setups, 0.5),
		"kernel_kops_per_op": float64(kernelOps) / 1e3 / float64(attempted),
		"wire_kb_per_op":     float64(bytes) / 1e3 / float64(attempted),
		"rss_peak_mb":        rss / 1e3,
	}
	for _, m := range e2eUnits {
		out.metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	clocks := p.clocks()
	for _, m := range clockUnits {
		out.ungated[m.name] = metric{Value: clocks[m.name], Unit: m.unit}
	}
	all := p.all()
	out.notes = append(out.notes,
		fmt.Sprintf("ops %d (primary %d, aux %d), failed %d; boots %.3f/%.3f/%.3f s; measured phase %.1f s",
			attempted, len(latencies(all, classPrimary)), len(latencies(all, classAux)), failed, setups[0], setups[1], setups[2], p.wall().Seconds()),
		fmt.Sprintf("peak RSS after each boot's warm-up %.1f/%.1f/%.1f MB", bootRSS[0], bootRSS[1], bootRSS[2]),
		fmt.Sprintf("raw primary p50 %.3f ms, aux p50 %.3f ms; host probes: spin p50 %.2f ms, memory p50 %.2f ms",
			quantile(latencies(all, classPrimary), 0.5), quantile(latencies(all, classAux), 0.5), quantile(durationsMS(p.calib), 0.5), quantile(durationsMS(p.mem), 0.5)))
	return out, nil
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
