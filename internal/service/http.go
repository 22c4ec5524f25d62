package service

// http.go is the JSON wire surface of the daemon, in every form it boots
// in: POST /check, POST /witnesses, POST /update for tuple batches, GET
// /healthz, GET /statsz and GET /metricsz in Prometheus text exposition,
// served by one edge over a Backend (backend.go). Handlers run on the HTTP
// server's goroutines; they only decode, call the Backend and encode — all
// kernel work happens behind it. Bodies are capped by Options.MaxBodyBytes
// (413 beyond it), decoding is strict (unknown fields and trailing data are
// 400s naming the offence), and `?trace=1` on the POST endpoints returns the
// request's per-stage spans.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// CheckRequest asks for constraint validation. With neither Constraints nor
// Text, every registered constraint is checked.
type CheckRequest struct {
	// Constraints names registered constraints to check.
	Constraints []string `json:"constraints,omitempty"`
	// Text holds ad-hoc constraint declarations in the rules language.
	Text string `json:"text,omitempty"`
	// TimeoutMS overrides the server's default request deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// NodeBudget caps the BDD node budget for this request; blowing it
	// degrades the check to the SQL fallback.
	NodeBudget int `json:"node_budget,omitempty"`
}

// CheckResult reports one constraint's validation.
type CheckResult struct {
	Name           string `json:"name"`
	Violated       bool   `json:"violated"`
	Method         string `json:"method,omitempty"`
	FellBack       bool   `json:"fell_back,omitempty"`
	FallbackReason string `json:"fallback_reason,omitempty"`
	DurationNS     int64  `json:"duration_ns"`
	Error          string `json:"error,omitempty"`
}

// CheckResponse is the /check reply.
type CheckResponse struct {
	Results []CheckResult `json:"results"`
	// Epoch is the epoch every result holds at: the requested ?epoch=N for a
	// historical read, otherwise the epoch of the version that answered — a
	// follow-up ?epoch= read of it returns the same verdicts. Zero when the
	// server runs without a durability store.
	Epoch uint64 `json:"epoch,omitempty"`
	// Trace carries the request's per-stage spans when ?trace=1.
	Trace *TraceInfo `json:"trace,omitempty"`
}

// TraceInfo is the wire form of a request trace: total handler time plus
// the recorded stage spans.
type TraceInfo struct {
	TotalNS int64       `json:"total_ns"`
	Spans   []TraceSpan `json:"spans"`
}

// TraceSpan is one traced stage. StartNS is the stage's offset from the
// start of the request.
type TraceSpan struct {
	Name       string `json:"name"`
	StartNS    int64  `json:"start_ns"`
	DurationNS int64  `json:"duration_ns"`
	// Kernel is the BDD-kernel counter movement the stage caused; absent for
	// stages that touched no kernel.
	Kernel *KernelDelta `json:"kernel,omitempty"`
	// Hits and Misses are the "memo" stage's: registered constraints answered
	// from the verdict memo, and left to evaluation.
	Hits   int `json:"hits,omitempty"`
	Misses int `json:"misses,omitempty"`
}

// KernelDelta is the wire form of a stage's kernel counter movement.
type KernelDelta struct {
	NodesAllocated uint64 `json:"nodes_allocated,omitempty"`
	GCRuns         int    `json:"gc_runs,omitempty"`
	CacheHits      uint64 `json:"cache_hits,omitempty"`
	Ops            uint64 `json:"ops,omitempty"`
}

// WitnessRequest asks for violating bindings of one constraint.
type WitnessRequest struct {
	// Constraint names a registered constraint; alternatively Text holds
	// one ad-hoc declaration.
	Constraint string `json:"constraint,omitempty"`
	Text       string `json:"text,omitempty"`
	// Limit bounds the number of witnesses; 10 when zero.
	Limit      int `json:"limit,omitempty"`
	TimeoutMS  int `json:"timeout_ms,omitempty"`
	NodeBudget int `json:"node_budget,omitempty"`
}

// Witness is one violating binding.
type Witness struct {
	Vars   []string `json:"vars"`
	Values []string `json:"values"`
}

// WitnessResponse is the /witnesses reply.
type WitnessResponse struct {
	Constraint string    `json:"constraint"`
	Method     string    `json:"method"`
	Witnesses  []Witness `json:"witnesses"`
	// Trace carries the request's per-stage spans when ?trace=1.
	Trace *TraceInfo `json:"trace,omitempty"`
}

// UpdateTuple is one tuple-level mutation.
type UpdateTuple struct {
	Table  string   `json:"table"`
	Op     string   `json:"op"` // "insert" or "delete"
	Values []string `json:"values"`
}

// UpdateRequest is a batch of mutations, applied in order through the
// incremental index maintenance path.
type UpdateRequest struct {
	Updates   []UpdateTuple `json:"updates"`
	TimeoutMS int           `json:"timeout_ms,omitempty"`
}

// UpdateResponse is the /update reply. On error, Applied says how many
// leading updates of the batch took effect.
type UpdateResponse struct {
	Applied int    `json:"applied"`
	Error   string `json:"error,omitempty"`
	// Trace carries the request's per-stage spans when ?trace=1.
	Trace *TraceInfo `json:"trace,omitempty"`
}

// StatszResponse reports live server, checker and kernel counters. Checker
// and Kernel aggregate across the primary and every replica (node counts,
// cache hits and op counts sum; Vars and Budget are the primary's, as all
// kernels share the same layout and budget); PrimaryKernel isolates the
// write path's kernel and Replication breaks the read pool down per worker.
type StatszResponse struct {
	UptimeMS      int64            `json:"uptime_ms"`
	Queue         QueueStats       `json:"queue"`
	Requests      RequestStats     `json:"requests"`
	Checker       CheckerStats     `json:"checker"`
	Kernel        KernelStats      `json:"kernel"`
	PrimaryKernel KernelStats      `json:"primary_kernel"`
	Replication   ReplicationStats `json:"replication"`
	Indices       []IndexStats     `json:"indices"`
	// IndexNodesEpoch is the epoch at which Indices' node counts were taken:
	// at boot, at the newest snapshot this process wrote, or at a reload.
	IndexNodesEpoch uint64       `json:"index_nodes_epoch"`
	Tables          []TableStats `json:"tables"`
	Constraints     []string     `json:"constraints"`
	// Epoch is the last durably acknowledged update round; it survives
	// restarts when a data directory is configured. Zero without one.
	Epoch uint64 `json:"epoch,omitempty"`
	// Durability reports the data directory's state; absent without one.
	Durability *store.Status `json:"durability,omitempty"`
	// Follower reports replication progress; absent on a leader.
	Follower *FollowerStats `json:"follower,omitempty"`
}

// ReplicationStats reports the replicated read path: pool size, current
// epoch, handoffs completed, and how requests were routed.
type ReplicationStats struct {
	// Replicas is the pool size; zero when replication is disabled.
	Replicas int `json:"replicas"`
	// Epoch is the latest published index version.
	Epoch uint64 `json:"epoch"`
	// Swaps counts completed version handoffs across all workers, and
	// Rebuilds those among them that built a fresh replica instead of
	// advancing the worker's own in place: one per worker at its first job,
	// then one whenever a worker could not follow (the primary rebuilt an
	// index, or the delta did not fit the node budget). Rebuilds rising
	// with Swaps means every epoch costs every replica a cold kernel.
	Swaps    uint64 `json:"swaps"`
	Rebuilds uint64 `json:"rebuilds"`
	// ReplicaChecks and ReplicaWitnesses count requests served by the pool;
	// Reroutes counts constraints bounced to the primary for SQL fallback.
	ReplicaChecks    uint64 `json:"replica_checks"`
	ReplicaWitnesses uint64 `json:"replica_witnesses"`
	Reroutes         uint64 `json:"reroutes"`
	// Workers reports each replica's private counters.
	Workers []ReplicaWorkerStats `json:"workers,omitempty"`
}

// ReplicaWorkerStats is one replica worker's view for /statsz.
type ReplicaWorkerStats struct {
	Worker int         `json:"worker"`
	Epoch  uint64      `json:"epoch"`
	Jobs   uint64      `json:"jobs"`
	Kernel KernelStats `json:"kernel"`
}

// QueueStats reports admission-queue depths against their capacity.
type QueueStats struct {
	ChecksDepth  int `json:"checks_depth"`
	ChecksCap    int `json:"checks_cap"`
	UpdatesDepth int `json:"updates_depth"`
	UpdatesCap   int `json:"updates_cap"`
}

// RequestStats reports request counters since startup.
type RequestStats struct {
	Checks          uint64 `json:"checks"`
	Witnesses       uint64 `json:"witnesses"`
	UpdateJobs      uint64 `json:"update_jobs"`
	UpdateTuples    uint64 `json:"update_tuples"`
	UpdateBatches   uint64 `json:"update_batches"`
	DeadlineRejects uint64 `json:"deadline_rejects"`
	QueueRejects    uint64 `json:"queue_rejects"`
}

// CheckerStats reports how constraints were decided since startup.
type CheckerStats struct {
	BDDChecks    int     `json:"bdd_checks"`
	FDFastPath   int     `json:"fd_fast_path"`
	SQLFallbacks int     `json:"sql_fallbacks"`
	Errors       int     `json:"errors"`
	FallbackRate float64 `json:"fallback_rate"`
	// MemoHits counts registered constraints answered from the verdict memo
	// — none of the decisions above ran for them — and MemoMisses those a
	// check looked up, did not find at its table versions, and evaluated.
	MemoHits   uint64 `json:"memo_hits"`
	MemoMisses uint64 `json:"memo_misses"`
}

// KernelStats reports the shared BDD kernel's counters.
type KernelStats struct {
	LiveNodes    int    `json:"live_nodes"`
	PeakNodes    int    `json:"peak_nodes"`
	Capacity     int    `json:"capacity"`
	Vars         int    `json:"vars"`
	Budget       int    `json:"budget"`
	GCRuns       int    `json:"gc_runs"`
	Ops          uint64 `json:"ops"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheEntries int    `json:"cache_entries"`
	// NodesAllocated is monotonic (GC never lowers it), so deltas between
	// two scrapes measure the work in between — the same figure traced
	// requests report per stage.
	NodesAllocated uint64 `json:"nodes_allocated"`
}

// HealthResponse is the /healthz reply.
type HealthResponse struct {
	Status   string `json:"status"`
	UptimeMS int64  `json:"uptime_ms"`
}

// edge is the daemon's one HTTP/JSON surface. It owns everything a request
// meets before and after the Backend: strict decode under the body cap, the
// request deadline, the error envelope and its status, ?trace=1 spans, and
// the per-endpoint latency, response-class and slow-request metrics.
type edge struct {
	b       Backend
	opts    Options
	started time.Time

	// reqDur is end-to-end request latency by endpoint; endpoints without an
	// entry (healthz, statsz, metricsz, snapshot, wal) are not timed.
	reqDur map[string]*obs.Histogram
	slow   *obs.Counter
	// resp counts responses by status class; index status/100 (2, 4, 5).
	// Other classes are unregistered and dropped.
	resp [6]*obs.Counter
}

// NewHandler returns the daemon's HTTP routes over b. Of opts it reads only
// the edge-level fields — MaxBodyBytes, DefaultTimeout, SlowRequest, SlowLog
// — and it registers the edge's metric families into b.Metrics(), so build
// one handler per Backend.
func NewHandler(b Backend, opts Options) http.Handler {
	h := &edge{b: b, opts: opts.withDefaults(), started: time.Now(), reqDur: map[string]*obs.Histogram{}}
	reg := b.Metrics()
	for _, ep := range []string{"check", "witnesses", "update"} {
		h.reqDur[ep] = reg.Histogram("cv_request_duration_seconds", `endpoint="`+ep+`"`,
			"End-to-end request latency in seconds, by endpoint.")
	}
	h.slow = reg.Counter("cv_slow_requests_total", "", "Requests at or above the slow-request threshold.")
	for _, class := range []int{2, 4, 5} {
		h.resp[class] = reg.Counter("cv_http_responses_total", fmt.Sprintf(`class="%dxx"`, class),
			"HTTP responses sent, by status class.")
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /check", h.handleCheck)
	mux.HandleFunc("POST /witnesses", h.handleWitnesses)
	mux.HandleFunc("POST /update", h.handleUpdate)
	mux.HandleFunc("GET /healthz", h.handleHealthz)
	mux.HandleFunc("GET /statsz", h.handleStatsz)
	mux.HandleFunc("GET /metricsz", h.handleMetricsz)
	if s, ok := b.(*Server); ok && s.st != nil {
		// Replication endpoints: any server with a durability store can feed
		// a follower (followers included, so replicas can chain).
		mux.HandleFunc("GET /snapshot/{epoch}", func(w http.ResponseWriter, r *http.Request) { s.handleSnapshotFetch(h, w, r) })
		mux.HandleFunc("GET /wal", func(w http.ResponseWriter, r *http.Request) { s.handleWALTail(h, w, r) })
	}
	return mux
}

// Handler returns the daemon's HTTP routes over this server, with the edge
// configured from the server's own options.
func (s *Server) Handler() http.Handler { return NewHandler(s, s.opts) }

// traceFor arms a trace for the request: always when the client asked with
// ?trace=1 (the spans go back in the response), and silently when the
// slow-request log is on (the spans feed the log line if the request
// crosses the threshold). wantTrace reports the explicit ask.
func (h *edge) traceFor(r *http.Request) (tr *obs.Trace, wantTrace bool) {
	switch r.URL.Query().Get("trace") {
	case "1", "true":
		wantTrace = true
	}
	if wantTrace || h.opts.SlowRequest > 0 {
		tr = obs.NewTrace()
	}
	return tr, wantTrace
}

// finishRequest observes the endpoint's latency histogram and emits the
// slow-request log line when the total crosses the threshold.
func (h *edge) finishRequest(endpoint string, start time.Time, tr *obs.Trace) {
	d := time.Since(start)
	if hist := h.reqDur[endpoint]; hist != nil {
		hist.Observe(d)
	}
	if h.opts.SlowRequest > 0 && d >= h.opts.SlowRequest {
		h.slow.Inc()
		h.opts.SlowLog.Printf("slow request: endpoint=%s total=%v %s",
			endpoint, d.Round(time.Microsecond), tr.Summary())
	}
}

// toWireTrace converts the recorded spans for the response; nil unless the
// client explicitly asked for the trace.
func toWireTrace(tr *obs.Trace, wantTrace bool) *TraceInfo {
	if tr == nil || !wantTrace {
		return nil
	}
	spans := tr.Spans()
	out := &TraceInfo{TotalNS: tr.Total().Nanoseconds(), Spans: make([]TraceSpan, len(spans))}
	for i, sp := range spans {
		ws := TraceSpan{Name: sp.Name, StartNS: sp.Start.Nanoseconds(), DurationNS: sp.Duration.Nanoseconds(), Hits: sp.Hits, Misses: sp.Misses}
		if sp.Kernel != nil {
			ws.Kernel = &KernelDelta{
				NodesAllocated: sp.Kernel.NodesAllocated,
				GCRuns:         sp.Kernel.GCRuns,
				CacheHits:      sp.Kernel.CacheHits,
				Ops:            sp.Kernel.Ops,
			}
		}
		out.Spans[i] = ws
	}
	return out
}

// requestContext derives the job context: the client's context bounded by
// the requested (or default) timeout.
func (h *edge) requestContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := h.opts.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), d)
}

func (h *edge) handleCheck(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	tr, wantTrace := h.traceFor(r)
	defer h.finishRequest("check", start, tr)
	var req CheckRequest
	if !h.decode(w, r, &req) {
		return
	}
	cts, registered, err := h.b.Resolve(req.Constraints, req.Text)
	if err != nil {
		h.httpError(w, err)
		return
	}
	// ?epoch=N pins the read; absent or zero reads the live state. What a
	// non-zero pin means (current, historical, unavailable) is the Backend's
	// call.
	var pin uint64
	if raw := r.URL.Query().Get("epoch"); raw != "" {
		if pin, err = parseUintParam("epoch", raw); err != nil {
			h.httpError(w, err)
			return
		}
	}
	ctx, cancel := h.requestContext(r, req.TimeoutMS)
	defer cancel()
	results, epoch, err := h.b.Check(ctx, cts, registered, req.NodeBudget, pin, tr)
	if err != nil {
		h.httpError(w, err)
		return
	}
	h.writeJSON(w, http.StatusOK, CheckResponse{Results: results, Epoch: epoch, Trace: toWireTrace(tr, wantTrace)})
}

func (h *edge) handleWitnesses(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	tr, wantTrace := h.traceFor(r)
	defer h.finishRequest("witnesses", start, tr)
	var req WitnessRequest
	if !h.decode(w, r, &req) {
		return
	}
	if req.Constraint == "" && req.Text == "" {
		h.httpError(w, errBadRequest("one of \"constraint\" or \"text\" is required"))
		return
	}
	var names []string
	if req.Constraint != "" {
		names = []string{req.Constraint}
	}
	cts, _, err := h.b.Resolve(names, req.Text)
	if err != nil {
		h.httpError(w, err)
		return
	}
	if len(cts) != 1 {
		h.httpError(w, errBadRequest("witness extraction takes exactly one constraint"))
		return
	}
	limit := req.Limit
	if limit <= 0 {
		limit = DefaultWitnessLimit
	}
	ctx, cancel := h.requestContext(r, req.TimeoutMS)
	defer cancel()
	ws, method, err := h.b.Witnesses(ctx, cts[0], limit, req.NodeBudget, tr)
	if err != nil {
		h.httpError(w, err)
		return
	}
	resp := WitnessResponse{Constraint: cts[0].Name, Method: method, Witnesses: make([]Witness, len(ws))}
	for i, wit := range ws {
		resp.Witnesses[i] = Witness{Vars: wit.Vars, Values: wit.Values}
	}
	resp.Trace = toWireTrace(tr, wantTrace)
	h.writeJSON(w, http.StatusOK, resp)
}

func (h *edge) handleUpdate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	tr, wantTrace := h.traceFor(r)
	defer h.finishRequest("update", start, tr)
	var req UpdateRequest
	if !h.decode(w, r, &req) {
		return
	}
	if len(req.Updates) == 0 {
		h.httpError(w, errBadRequest("empty update batch"))
		return
	}
	ctx, cancel := h.requestContext(r, req.TimeoutMS)
	defer cancel()
	applied, err := h.b.Update(ctx, fromWireUpdates(req.Updates), tr)
	var nl *NotLeaderError
	switch {
	case errors.As(err, &nl):
		// 421 names the right destination, in a header and in the envelope.
		w.Header().Set(HeaderLeader, nl.Leader)
		h.writeJSON(w, http.StatusMisdirectedRequest, map[string]string{"error": err.Error(), "leader": nl.Leader})
	case err != nil:
		h.writeJSON(w, statusFor(err), UpdateResponse{Applied: applied, Error: err.Error()})
	default:
		h.writeJSON(w, http.StatusOK, UpdateResponse{Applied: applied, Trace: toWireTrace(tr, wantTrace)})
	}
}

func (h *edge) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h.writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", UptimeMS: time.Since(h.started).Milliseconds()})
}

func (h *edge) handleStatsz(w http.ResponseWriter, r *http.Request) {
	h.writeJSON(w, http.StatusOK, h.b.Statsz())
}

// handleMetricsz serves the Prometheus text exposition. Every gauge callback
// a Backend registers reads atomically published state only; no live kernel
// is touched from a scrape.
func (h *edge) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	h.observeResponse(http.StatusOK)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = h.b.Metrics().WritePrometheus(w)
}

// plumbing

// decode reads one strict JSON document from the request body: the body is
// capped at Options.MaxBodyBytes (413 past it), unknown fields are rejected
// naming the field, and trailing data after the document is a 400 — a
// concatenated second document would otherwise be silently dropped, masking
// client framing bugs.
func (h *edge) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	body := r.Body
	if h.opts.MaxBodyBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, h.opts.MaxBodyBytes)
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		h.httpError(w, decodeError(err))
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		h.httpError(w, errBadRequest("trailing data after JSON body"))
		return false
	}
	return true
}

// decodeError shapes a JSON decoding failure for the client: body-cap hits
// keep their *http.MaxBytesError identity (mapped to 413 by statusFor) and
// the stdlib's "json: " prefix is stripped so the envelope reads
// `unknown field "frobnicate"` rather than leaking package names.
func decodeError(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return err
	}
	return errBadRequest("bad request body: " + strings.TrimPrefix(err.Error(), "json: "))
}

type badRequestError string

func errBadRequest(msg string) error    { return badRequestError(msg) }
func (e badRequestError) Error() string { return string(e) }

// parseUintParam parses an unsigned decimal query/path parameter strictly:
// only ASCII digits are accepted, so signs ("+1", "-1"), trailing garbage
// ("12x", "1 "), hex, and empty strings all fail with one uniform 400
// message instead of whatever strconv would phrase (or, worse, accept).
// Overflow gets its own message so a follower paging epochs can tell a typo
// from a too-large value.
func parseUintParam(name, raw string) (uint64, error) {
	if raw == "" {
		return 0, errBadRequest(fmt.Sprintf("bad %s parameter %q: want an unsigned decimal integer", name, raw))
	}
	for i := 0; i < len(raw); i++ {
		if raw[i] < '0' || raw[i] > '9' {
			return 0, errBadRequest(fmt.Sprintf("bad %s parameter %q: want an unsigned decimal integer", name, raw))
		}
	}
	n, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, errBadRequest(fmt.Sprintf("bad %s parameter %q: out of range", name, raw))
	}
	return n, nil
}

// statusFor maps a Backend error to its HTTP status. An error that knows
// its own status (shard.WorkerError: 502) says so through HTTPStatus, ahead
// of whatever sentinel it wraps.
func statusFor(err error) int {
	var mbe *http.MaxBytesError
	var own interface{ HTTPStatus() int }
	switch {
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge
	case errors.As(err, &own):
		return own.HTTPStatus()
	case errors.Is(err, ErrBusy), errors.Is(err, ErrShuttingDown), errors.Is(err, ErrStale):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, store.ErrEpochNotRetained), errors.Is(err, store.ErrNoSnapshot):
		// The epoch existed but its snapshot has been pruned: gone, not absent.
		return http.StatusGone
	case errors.Is(err, ErrFutureEpoch):
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

func (h *edge) httpError(w http.ResponseWriter, err error) {
	h.writeJSON(w, statusFor(err), map[string]string{"error": err.Error()})
}

// observeResponse counts one HTTP response by status class.
func (h *edge) observeResponse(status int) {
	if c := h.resp[status/100%6]; c != nil {
		c.Inc()
	}
}

func (h *edge) writeJSON(w http.ResponseWriter, status int, v any) {
	h.observeResponse(status)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
