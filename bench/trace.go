package main

// trace.go records spans from the benchmark's own files, around the calls
// into each layer (spans inside the program are a later issue). A span has a
// name, a start and an end, the span that caused it, the op it belongs to,
// and the BDD-kernel counter movement of the call it wraps. Spans stay in
// memory and are written to bench/out/trace-<workload>.jsonl when the run
// ends. A layer's self time is its span minus the part its children cover;
// the self times of an op's spans sum to the op's root span.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bdd"
	"repro/internal/service"
)

// kernelDelta is the counter movement of one wrapped call: what
// bdd.Stats.DeltaSince gives, plus the per-cache traffic behind the hit
// rates.
type kernelDelta struct {
	Ops            uint64 `json:"ops,omitempty"`
	Allocs         uint64 `json:"allocs,omitempty"`
	GCRuns         int    `json:"gc_runs,omitempty"`
	ApplyLookups   uint64 `json:"apply_lookups,omitempty"`
	ApplyHits      uint64 `json:"apply_hits,omitempty"`
	QuantLookups   uint64 `json:"quant_lookups,omitempty"`
	QuantHits      uint64 `json:"quant_hits,omitempty"`
	ReplaceLookups uint64 `json:"replace_lookups,omitempty"`
	ReplaceHits    uint64 `json:"replace_hits,omitempty"`
	// Peak is the kernel's peak live-node count at the end of the call.
	Peak int `json:"peak,omitempty"`
}

func deltaOf(before, after bdd.Stats) *kernelDelta {
	d := after.DeltaSince(before)
	return &kernelDelta{
		Ops: d.Ops, Allocs: d.NodesAllocated, GCRuns: d.GCRuns,
		ApplyLookups: after.ApplyLookups - before.ApplyLookups, ApplyHits: after.ApplyHits - before.ApplyHits,
		QuantLookups: after.QuantLookups - before.QuantLookups, QuantHits: after.QuantHits - before.QuantHits,
		ReplaceLookups: after.ReplaceLookups - before.ReplaceLookups, ReplaceHits: after.ReplaceHits - before.ReplaceHits,
		Peak: after.Peak,
	}
}

func (d *kernelDelta) add(o *kernelDelta) {
	d.Ops += o.Ops
	d.Allocs += o.Allocs
	d.GCRuns += o.GCRuns
	d.ApplyLookups += o.ApplyLookups
	d.ApplyHits += o.ApplyHits
	d.QuantLookups += o.QuantLookups
	d.QuantHits += o.QuantHits
	d.ReplaceLookups += o.ReplaceLookups
	d.ReplaceHits += o.ReplaceHits
	d.Peak = max(d.Peak, o.Peak)
}

// span is one line of trace-<workload>.jsonl.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Pass   string `json:"pass"`   // "inproc", "daemon" or "replay"
	Op     int    `json:"op"`     // index into the measured ops; -1: set-up and tear-down
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
	// SelfNS is filled in when the trace is written.
	SelfNS int64        `json:"self_ns"`
	Kernel *kernelDelta `json:"kernel,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder collects spans. Calls may come from the replica pool's worker
// goroutines, so it locks.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []*span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) add(sp *span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	sp.ID = len(r.spans) + 1
	r.spans = append(r.spans, sp)
	return sp.ID
}

// in runs f inside a new span. ks are the kernels whose summed counter
// movement the span carries; their owners must be quiescent or the caller.
// f receives the span's id, the parent of any span it opens. A nil recorder
// just runs f.
func (r *recorder) in(pass string, parent, op int, name string, ks []*bdd.Kernel, f func(id int)) *span {
	if r == nil {
		f(0)
		return nil
	}
	sp := &span{Parent: parent, Pass: pass, Op: op, Name: name}
	id := r.add(sp)
	r.time(sp, ks, func() { f(id) })
	return sp
}

// time runs f and fills in the span's interval and kernel counters.
func (r *recorder) time(sp *span, ks []*bdd.Kernel, f func()) {
	before := make([]bdd.Stats, len(ks))
	for i, k := range ks {
		before[i] = k.Stats()
	}
	sp.Start = time.Since(r.t0).Nanoseconds()
	f()
	sp.End = time.Since(r.t0).Nanoseconds()
	for i, k := range ks {
		d := deltaOf(before[i], k.Stats())
		if sp.Kernel == nil {
			sp.Kernel = d
		} else {
			sp.Kernel.add(d)
		}
	}
}

// nest adds spans that ran side by side under parent — the shards of one
// scatter — so that self times still sum: each is clipped to parent, and one
// that starts inside an earlier sibling becomes that sibling's child (the
// faster shard of a scatter inside the slower one).
func (r *recorder) nest(parent *span, kids []*span) {
	sort.SliceStable(kids, func(i, j int) bool {
		if kids[i].Start != kids[j].Start {
			return kids[i].Start < kids[j].Start
		}
		return kids[i].End > kids[j].End
	})
	stack := []*span{parent}
	for _, k := range kids {
		for len(stack) > 1 && k.Start >= stack[len(stack)-1].End {
			stack = stack[:len(stack)-1]
		}
		in := stack[len(stack)-1]
		k.Start = max(k.Start, in.Start)
		k.End = min(k.End, in.End) // clip a partial overlap to its parent
		k.Start = min(k.Start, k.End)
		k.Parent = in.ID
		r.add(k)
		stack = append(stack, k)
	}
}

// addDaemon records one traced request of the daemon pass: a root span for
// the client's view, a "server" child for the handler's total_ns, and the
// daemon's own spans under it, verbatim. The daemon reports a flat list, so
// they are nested by containment.
func (r *recorder) addDaemon(op int, name string, sentAt time.Time, latency time.Duration, tr *service.TraceInfo) {
	start := sentAt.Sub(r.t0).Nanoseconds()
	root := &span{Pass: "daemon", Op: op, Name: name, Start: start, End: start + latency.Nanoseconds()}
	rootID := r.add(root)
	if tr == nil {
		return
	}
	// The handler's clock is not ours: centre its total inside the client's
	// latency, which splits the edge time evenly between request and reply.
	off := start + (latency.Nanoseconds()-tr.TotalNS)/2
	if tr.TotalNS > latency.Nanoseconds() {
		off = start
	}
	server := &span{Parent: rootID, Pass: "daemon", Op: op, Name: "server", Start: off, End: off + tr.TotalNS}
	r.add(server)
	var kids []*span
	for _, ds := range foldSpans(tr.Spans) {
		sp := &span{Pass: "daemon", Op: op, Name: ds.Name, Start: off + ds.StartNS, End: off + ds.StartNS + ds.DurationNS}
		if ds.Kernel != nil {
			sp.Kernel = &kernelDelta{Ops: ds.Kernel.Ops, Allocs: ds.Kernel.NodesAllocated, GCRuns: ds.Kernel.GCRuns}
		}
		kids = append(kids, sp)
	}
	r.nest(server, kids)
}

// foldLimit is the most spans of one request the trace keeps verbatim.
const foldLimit = 32

// foldSpans returns a request's spans as the daemon sent them, unless there
// are more than foldLimit: then each run of consecutive spans sharing the
// name prefix before ":" (hot_recheck's 1 200 eval:<constraint> spans) is
// folded into one "<prefix>:*" span covering the run and carrying its summed
// kernel counters, which keeps the trace file in megabytes.
func foldSpans(in []service.TraceSpan) []service.TraceSpan {
	if len(in) <= foldLimit {
		return append([]service.TraceSpan(nil), in...)
	}
	var out []service.TraceSpan
	prefix := func(name string) string {
		if i := strings.IndexByte(name, ':'); i >= 0 {
			return name[:i+1] + "*"
		}
		return name
	}
	for _, sp := range in {
		p := prefix(sp.Name)
		if n := len(out); n > 0 && p != sp.Name && out[n-1].Name == p {
			last := &out[n-1]
			if end := sp.StartNS + sp.DurationNS; end > last.StartNS+last.DurationNS {
				last.DurationNS = end - last.StartNS
			}
			if sp.Kernel != nil {
				if last.Kernel == nil {
					last.Kernel = &service.KernelDelta{}
				}
				last.Kernel.Ops += sp.Kernel.Ops
				last.Kernel.NodesAllocated += sp.Kernel.NodesAllocated
				last.Kernel.GCRuns += sp.Kernel.GCRuns
				last.Kernel.CacheHits += sp.Kernel.CacheHits
			}
			continue
		}
		if p != sp.Name {
			sp.Name = p
			if sp.Kernel != nil {
				k := *sp.Kernel
				sp.Kernel = &k
			}
		}
		out = append(out, sp)
	}
	return out
}

// finish computes every span's self time: its duration minus the union of
// its children's intervals (clipped to it).
func (r *recorder) finish() {
	children := map[int][]*span{}
	for _, sp := range r.spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	for _, sp := range r.spans {
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), sp.Start
		for _, k := range kids {
			s, e := max(k.Start, edge), min(k.End, sp.End)
			if e > s {
				covered += e - s
				edge = e
			}
		}
		sp.SelfNS = sp.End - sp.Start - covered
	}
}

// checkSums verifies that, for every root span, the self times of its tree
// sum to its duration within 1 %.
func (r *recorder) checkSums() error {
	rootOf := map[int]int{}
	sum := map[int]int64{}
	for _, sp := range r.spans { // parents precede children
		root := sp.ID
		if sp.Parent != 0 {
			root = rootOf[sp.Parent]
		}
		rootOf[sp.ID] = root
		sum[root] += sp.SelfNS
	}
	for _, sp := range r.spans {
		if sp.Parent != 0 {
			continue
		}
		total := sp.End - sp.Start
		diff := sum[sp.ID] - total
		if diff < 0 {
			diff = -diff
		}
		if total > 0 && float64(diff) > 0.01*float64(total) {
			return fmt.Errorf("trace: self times of %s op %d (%s) sum to %d ns, root span is %d ns", sp.Pass, sp.Op, sp.Name, sum[sp.ID], total)
		}
	}
	return nil
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range r.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Queries the per-layer metrics are made of.

// pick returns the spans of a pass with the given name; measured selects
// spans of measured ops only (op >= 0).
func (r *recorder) pick(pass, name string, measured bool) []*span {
	var out []*span
	for _, sp := range r.spans {
		if sp.Pass == pass && sp.Name == name && (!measured || sp.Op >= 0) {
			out = append(out, sp)
		}
	}
	return out
}

func totalDur(spans []*span) time.Duration {
	var d time.Duration
	for _, sp := range spans {
		d += sp.dur()
	}
	return d
}

func totalSelf(spans []*span) time.Duration {
	var d time.Duration
	for _, sp := range spans {
		d += time.Duration(sp.SelfNS)
	}
	return d
}

// meanMS is the mean duration in ms, zero for no spans.
func meanMS(spans []*span) float64 {
	if len(spans) == 0 {
		return 0
	}
	return ms(totalDur(spans)) / float64(len(spans))
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
