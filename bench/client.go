package main

// client.go drives one daemon from one goroutine on one keep-alive
// connection in a closed loop — callers of a constraint checker (batch
// validators, ingest jobs) wait for the verdict, and two cores cannot host
// a steady open-loop generator beside the daemon — and reduces the samples
// to the benchmark's estimators.
//
// Estimators. The measured phase is numSlices consecutive slices with the
// same op-template sequence in each. A latency metric is the lower quartile
// across slices of the slice's median latency; ops_per_s is the upper
// quartile across slices of the slice's throughput. On this kind of host
// identical work swings by 2-3x inside one run; the quartile of slices keeps
// the slices the host left alone and repeated within 8-10 % across runs in
// the probe where the median of slices moved 15-17 % and the minimum 16-18 %
// (see README.md).

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/service"
)

// sample is one op of a pass.
type sample struct {
	op      *op
	sent    time.Time
	latency time.Duration
	failed  error
	bytes   int // request + response body bytes
	// trace is the reply's span block on a traced pass.
	trace *service.TraceInfo
}

// pass is the outcome of one replay of the measured slices.
type pass struct {
	slices [][]sample
	// walls is each slice's wall time, first request sent to last reply
	// verified.
	walls []time.Duration
	// calib and mem are the host-noise probes' times before each slice.
	calib, mem []time.Duration
	// kernelOps is the BDD kernel steps the daemon spent, summed over its
	// primary and replica kernels; zero on the coordinator, whose /statsz
	// carries no kernel counters.
	kernelOps uint64
	first     firstFailure
}

// firstFailure remembers the first failed op for the report.
type firstFailure struct {
	n   int
	err error
}

func (f *firstFailure) add(err error) {
	if f.n == 0 {
		f.err = err
	}
	f.n++
}

// calibSink keeps the spin loop's result alive.
var calibSink uint64

// spin is the host-noise probe: a fixed pure-Go loop. Its time says whether
// the host was slow; it never normalises a metric (tried in the probe: the
// ratio was noisier than the raw time).
func spin() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 4_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return time.Since(start)
}

// memTable is the memory probe's working set, larger than any cache level.
var memTable []uint64

// memProbe is the second host-noise probe: a fixed number of independent
// random read-modify-writes over a 64 MB table. On this kind of host the
// spin loop stays flat while a neighbour's memory traffic slows the daemon by
// a fifth for minutes; this loop's median over a run followed the daemon's
// latency with r = 0.8-0.99 across runs (README.md). Like the spin loop it
// is context for reading a run and never normalises a metric.
func memProbe() time.Duration {
	if memTable == nil {
		memTable = make([]uint64, 64<<20/8)
		for i := range memTable {
			memTable[i] = uint64(i) // fault every page in before the first timing
		}
	}
	start := time.Now()
	x := uint64(88172645463325252)
	mask := uint64(len(memTable) - 1)
	for i := 0; i < 400_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		memTable[x&mask] += x
	}
	return time.Since(start)
}

// kernelMeter accumulates kernel steps from successive /statsz documents.
// The primary's counter only grows. A replica worker builds a fresh kernel —
// and restarts the counter — when it adopts a new epoch, which it does on
// the first job it serves after an update is published; so the meter reads
// /statsz once before the measured phase, once after every /update (the last
// moment a kernel about to be retired can be seen with its final count) and
// once at the end, and a worker whose epoch moved between two reads
// contributes its whole new count. Read-only workloads are read twice.
type kernelMeter struct {
	primary uint64
	workers map[int]workerMark
	total   uint64
}

type workerMark struct {
	epoch, ops uint64
}

// read fetches /statsz and adds the kernels' movement since the last read.
func (m *kernelMeter) read(d *daemon) error {
	var st service.StatszResponse
	if err := d.getJSON("/statsz", &st); err != nil {
		return err
	}
	m.total += st.PrimaryKernel.Ops - m.primary
	m.primary = st.PrimaryKernel.Ops
	if m.workers == nil {
		m.workers = map[int]workerMark{}
	}
	for _, w := range st.Replication.Workers {
		prev := m.workers[w.Worker]
		if w.Epoch != prev.epoch {
			m.total += w.Kernel.Ops
		} else {
			m.total += w.Kernel.Ops - prev.ops
		}
		m.workers[w.Worker] = workerMark{epoch: w.Epoch, ops: w.Kernel.Ops}
	}
	return nil
}

// runSlice sends one slice's ops and verifies each reply against the
// reference answer the op carries. It returns the samples and the slice's
// wall time.
func runSlice(d *daemon, w *workload, ops []op, traced bool, meter *kernelMeter, ff *firstFailure) ([]sample, time.Duration, error) {
	out := make([]sample, len(ops))
	start := time.Now()
	for i := range ops {
		p := &ops[i]
		r := d.do(*p, traced)
		s := sample{op: p, sent: r.sent, latency: r.latency, bytes: len(p.Body) + len(r.body)}
		if err := verify(w, *p, r); err != nil {
			s.failed = fmt.Errorf("%s op %d (%s): %w", w.Name, i, p.Tmpl, err)
			ff.add(s.failed)
		} else if traced {
			s.trace = traceOf(p.Path, r.body)
		}
		out[i] = s
		if meter != nil && p.Path == "/update" {
			if err := meter.read(d); err != nil {
				return nil, 0, err
			}
		}
	}
	return out, time.Since(start), nil
}

// traceOf extracts the span block of a traced reply.
func traceOf(path string, body []byte) *service.TraceInfo {
	var env struct {
		Trace *service.TraceInfo `json:"trace"`
	}
	if json.Unmarshal(body, &env) != nil {
		return nil
	}
	return env.Trace
}

// replay sends untimed slices (the warm-up slice at the end of a boot, the
// settle slices before the measured phase); any failed op is an error.
func replay(d *daemon, w *workload, slices ...[]op) error {
	var ff firstFailure
	for _, sl := range slices {
		if _, _, err := runSlice(d, w, sl, false, nil, &ff); err != nil {
			return err
		}
	}
	if ff.n > 0 {
		return fmt.Errorf("warm-up: %d ops failed, first: %w", ff.n, ff.err)
	}
	return nil
}

// measure replays the measured slices on a warmed-up daemon.
func measure(d *daemon, w *workload, traced bool) (*pass, error) {
	p := &pass{}
	// The coordinator's /statsz carries no kernel counters.
	var meter *kernelMeter
	if w.Shards == 0 {
		meter = &kernelMeter{}
		if err := meter.read(d); err != nil {
			return nil, err
		}
		meter.total = 0 // the first read is the baseline
	}
	for i := range w.Slices {
		p.calib = append(p.calib, spin())
		p.mem = append(p.mem, memProbe())
		sl, wall, err := runSlice(d, w, w.Slices[i], traced, meter, &p.first)
		if err != nil {
			return nil, err
		}
		p.slices = append(p.slices, sl)
		p.walls = append(p.walls, wall)
	}
	if meter != nil {
		if err := meter.read(d); err != nil {
			return nil, err
		}
		p.kernelOps = meter.total
	}
	return p, nil
}

// Reductions.

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile of vals by linear interpolation between
// order statistics; vals is sorted in place.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	pos := q * float64(len(vals)-1)
	lo := int(pos)
	if lo+1 >= len(vals) {
		return vals[len(vals)-1]
	}
	return vals[lo] + (pos-float64(lo))*(vals[lo+1]-vals[lo])
}

// latencies returns the successful samples' latencies of a class in ms.
func latencies(samples []sample, class opClass) []float64 {
	var out []float64
	for _, s := range samples {
		if s.failed == nil && s.op.Class == class {
			out = append(out, ms(s.latency))
		}
	}
	return out
}

func (p *pass) all() []sample {
	var out []sample
	for _, sl := range p.slices {
		out = append(out, sl...)
	}
	return out
}

// sliceLatency is the lower quartile across slices of the slice's median
// latency for the class. A failed op has no latency: it is missing from its
// slice's median and counted in failed.
func (p *pass) sliceLatency(class opClass) float64 {
	return quantile(p.sliceMedians(class), 0.25)
}

// sliceMedians is each slice's median latency for the class.
func (p *pass) sliceMedians(class opClass) []float64 {
	var medians []float64
	for _, sl := range p.slices {
		if l := latencies(sl, class); len(l) > 0 {
			medians = append(medians, quantile(l, 0.5))
		}
	}
	return medians
}

// sliceRates is each slice's closed-loop throughput: successful ops over
// the slice's wall time, which holds the client's own work between requests
// (decoding and checking each reply) as a real caller's would.
func (p *pass) sliceRates() []float64 {
	rates := make([]float64, len(p.slices))
	for i, sl := range p.slices {
		ok := 0
		for _, s := range sl {
			if s.failed == nil {
				ok++
			}
		}
		rates[i] = float64(ok) / p.walls[i].Seconds()
	}
	return rates
}

// wall is the measured phase's length: the slices' wall times added up.
func (p *pass) wall() time.Duration {
	var d time.Duration
	for _, w := range p.walls {
		d += w
	}
	return d
}

func (p *pass) counts() (attempted, failed int, bytes int) {
	for _, s := range p.all() {
		attempted++
		if s.failed != nil {
			failed++
		}
		bytes += s.bytes
	}
	return
}
