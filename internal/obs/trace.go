package obs

// trace.go is the request-scoped tracing facility: a Trace collects named
// spans (queue wait, BDD evaluation, SQL fallback, ...) as a request moves
// from handler goroutine to kernel worker and back, each span optionally
// annotated with the BDD-kernel counter delta it caused. A nil *Trace is the
// disabled state: every method is a nil-safe no-op, so call sites record
// unconditionally and pay one nil check when tracing is off.

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/bdd"
)

// Span is one recorded stage of a traced request.
type Span struct {
	// Name identifies the stage ("queue_wait", "eval:nj_codes", ...).
	Name string
	// Start is the stage's offset from the start of the trace.
	Start time.Duration
	// Duration is the stage's wall-clock time.
	Duration time.Duration
	// Kernel is the BDD-kernel counter movement attributed to the stage;
	// nil for stages that touch no kernel.
	Kernel *bdd.Delta
	// Hits and Misses count the lookups a cache stage ("memo") answered and
	// left to evaluation; zero for every other stage.
	Hits, Misses int
}

// Trace accumulates the spans of one request. Create one with NewTrace;
// leave the pointer nil to disable tracing. Spans may be recorded from
// multiple goroutines (the handler and the worker serving its job): the
// internal mutex orders them, and the request's sequential handoff keeps
// the span list coherent.
type Trace struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTrace starts a trace; its zero point is the moment of creation.
func NewTrace() *Trace { return &Trace{t0: time.Now()} }

// Begin returns the current time, for a later Span/SpanKernel call. It is
// nil-safe and returns the zero time on a disabled trace, letting call
// sites skip the clock read entirely when neither tracing nor slow-logging
// is armed.
func (t *Trace) Begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// Span records a stage that started at start and ends now, with no kernel
// attribution. No-op on a nil trace.
func (t *Trace) Span(name string, start time.Time) {
	if t == nil {
		return
	}
	t.add(Span{Name: name, Start: start.Sub(t.t0), Duration: time.Since(start)})
}

// SpanKernel records a stage that started at start and ends now, annotated
// with the kernel counter delta it caused. A zero delta is recorded without
// annotation. No-op on a nil trace.
func (t *Trace) SpanKernel(name string, start time.Time, d bdd.Delta) {
	if t == nil {
		return
	}
	sp := Span{Name: name, Start: start.Sub(t.t0), Duration: time.Since(start)}
	if !d.IsZero() {
		sp.Kernel = &d
	}
	t.add(sp)
}

// Lookups records a cache-lookup stage that started at start and ends now,
// with how many lookups it answered and how many it left to evaluation.
// No-op on a nil trace.
func (t *Trace) Lookups(name string, start time.Time, hits, misses int) {
	if t == nil {
		return
	}
	t.add(Span{Name: name, Start: start.Sub(t.t0), Duration: time.Since(start), Hits: hits, Misses: misses})
}

// Record adds a stage with an explicitly measured duration, for call sites
// that already timed the work (e.g. splitting a result's SQL share out of
// its total) and must not read the clock again. A nil kd leaves the span
// unannotated; a zero delta behind kd is likewise dropped. No-op on a nil
// trace.
func (t *Trace) Record(name string, start time.Time, d time.Duration, kd *bdd.Delta) {
	if t == nil {
		return
	}
	sp := Span{Name: name, Start: start.Sub(t.t0), Duration: d}
	if kd != nil && !kd.IsZero() {
		cp := *kd
		sp.Kernel = &cp
	}
	t.add(sp)
}

func (t *Trace) add(sp Span) {
	if sp.Start < 0 {
		sp.Start = 0
	}
	if sp.Duration < 0 {
		sp.Duration = 0
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in recording order. Nil-safe.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Total returns the time elapsed since the trace started. Nil-safe.
func (t *Trace) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.t0)
}

// Summary renders the spans on one line for the slow-request log:
// "queue_wait=1.2ms memo=3µs[1/2] eval:nj_codes=25ms[+1204n]" (memo: hits
// of lookups). Nil-safe.
func (t *Trace) Summary() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	for i, sp := range t.spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%v", sp.Name, sp.Duration.Round(time.Microsecond))
		if sp.Kernel != nil {
			fmt.Fprintf(&b, "[+%dn]", sp.Kernel.NodesAllocated)
		}
		if lookups := sp.Hits + sp.Misses; lookups > 0 {
			fmt.Fprintf(&b, "[%d/%d]", sp.Hits, lookups)
		}
	}
	return b.String()
}
