// Package service runs the constraint checker as a long-lived server: one
// core.Checker with pre-built logical indices serves many concurrent
// clients, amortizing the index construction cost the one-shot CLIs pay on
// every invocation (the whole point of the paper's logical indices, §2.3).
//
// Concurrency model: any number of goroutines accept and decode requests,
// but the BDD kernel is not safe for concurrent use, so all constraint
// evaluation and index maintenance is dispatched through bounded admission
// queues to a single worker goroutine that owns the checker. Backpressure is
// the queue bound: when a queue is full, submitters wait until their
// deadline and are rejected. Update jobs are coalesced — every queued batch
// is applied through the incremental index maintenance path before the next
// check runs — so checks always observe a consistent database and an
// acknowledged update is visible to every subsequently submitted check.
//
// A request may carry its own node budget: a check that blows it degrades
// gracefully to the SQL fallback exactly as core.CheckOne does.
//
// Parallel read path: with Options.Replicas ≥ 1 (the default is
// GOMAXPROCS), /check and /witnesses are served by a pool of replicated
// read-only checkers (internal/replica), each owning a private BDD kernel,
// so reads scale across cores. The primary worker keeps exclusive
// ownership of writes: after each update batch it freezes an immutable
// index version and publishes it to the pool *before* acknowledging the
// batch, so an acked update is visible to every subsequently submitted
// check, exactly as in the single-worker model. Checks that need the SQL
// fallback (missing index, blown budget) are rerouted from the replica to
// the primary worker, which sees the live tables.
//
// Verdict memo: a registered constraint's verdict is a fact about a database
// state, so the server keeps the last one per constraint together with the
// table versions it was decided on (memo.go). A check of registered
// constraints against tables that have not moved since is answered from the
// memo — on a healthy pool without queueing for a replica at all — and an
// update invalidates by moving a table version, not by touching the memo.
package service

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/store"
)

// Service errors, mapped to HTTP statuses by the handlers.
var (
	// ErrShuttingDown is returned for work submitted after Close.
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrBusy is returned when a request's deadline expires while it waits
	// for admission-queue space — the backpressure signal.
	ErrBusy = errors.New("service: admission queue full")
	// ErrUnknownConstraint is returned for names missing from the registry.
	ErrUnknownConstraint = errors.New("service: unknown constraint")
)

// Options configures a Server.
type Options struct {
	// QueueDepth bounds each admission queue (checks and updates
	// separately); 64 when zero.
	QueueDepth int
	// DefaultTimeout applies to requests that carry no deadline of their
	// own; 30s when zero.
	DefaultTimeout time.Duration
	// Replicas sizes the replicated-kernel read pool serving /check and
	// /witnesses. Zero selects GOMAXPROCS; a negative value disables
	// replication, serializing reads behind the primary worker.
	Replicas int
	// MaxBodyBytes caps the size of accepted request bodies; larger bodies
	// are rejected with 413. 8 MiB when zero; negative disables the cap.
	MaxBodyBytes int64
	// WriteTimeout mirrors the enclosing http.Server's WriteTimeout so
	// long-poll handlers (/wal?wait_ms=) can clamp their waits safely below
	// it: a handler still parked when the write timeout fires has its
	// connection cut mid-chunk, which a tailing follower sees as a spurious
	// corrupt-record error. Zero means the server has no write timeout and
	// only the built-in 30s cap applies.
	WriteTimeout time.Duration
	// SlowRequest, when positive, traces every request and logs those whose
	// total time reaches the threshold, with per-stage spans and kernel
	// deltas. Zero disables the slow-request log.
	SlowRequest time.Duration
	// SlowLog receives slow-request lines; log.Default() when nil.
	SlowLog *log.Logger
	// Store, when non-nil, makes acknowledged updates durable: the worker
	// logs every applied batch to the store's WAL before acknowledging it
	// and writes periodic snapshots. The store must be opened (and, on warm
	// restart, recovered) by the caller before New.
	Store *store.Store
	// SnapshotEveryBatches triggers a snapshot after that many coalesced
	// update rounds; 64 when zero and a Store is set. Negative disables
	// snapshots, so the WAL is never truncated.
	SnapshotEveryBatches int
	// InitialEpoch seeds the epoch counter — the recovered epoch on warm
	// restart, so epochs keep rising monotonically across process lives.
	// Zero means a fresh start (epoch 1).
	InitialEpoch uint64
	// Follower, when non-nil, runs the server as a read-only replica of
	// another cvserved: it bootstraps from the leader's newest snapshot,
	// tails the leader's WAL, applies each acknowledged epoch through the
	// same incremental-maintenance path the leader uses, and refuses writes
	// (421 pointing at the leader). Requires Store. See follower.go.
	Follower *FollowerOptions
}

// DefaultMaxBodyBytes is the request-body cap applied when
// Options.MaxBodyBytes is zero.
const DefaultMaxBodyBytes = 8 << 20

// maxBatch bounds how many queued update jobs one coalescing round applies
// before the worker looks for other work.
const maxBatch = 256

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.Replicas == 0 {
		o.Replicas = runtime.GOMAXPROCS(0)
	}
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if o.SlowLog == nil {
		o.SlowLog = log.Default()
	}
	if o.Store != nil && o.SnapshotEveryBatches == 0 {
		o.SnapshotEveryBatches = 64
	}
	return o
}

// Server serves a checker and serializes all kernel work through one
// worker. It holds only what handlers share; the checker lives in the
// worker, which nothing here points to.
type Server struct {
	*Registry // the named constraints served; Resolve and Constraints
	opts      Options
	started   time.Time

	checks  chan *checkJob
	updates chan *updateJob
	quit    chan struct{}
	done    chan struct{}
	closing sync.Once

	// coreOpts is the checker's runtime configuration, captured at New so
	// goroutines that materialize historical or recovered checkers need not
	// reach the worker's checker (which a follower re-bootstrap replaces
	// outright).
	coreOpts core.Options

	// epochSig is broadcast after every epoch advance; the leader's /wal
	// long-poll waits on it instead of busy-polling the log.
	epochSig *epochSignal

	// Replication service counters (leader side), incremented by handlers.
	nSnapshotServes atomic.Uint64
	nWALServes      atomic.Uint64

	// Follower mode. follow is nil on a leader; repl is the worker channel
	// the tail loop hands snapshot installs and batch groups to (nil on a
	// leader: its select case never fires). See follower.go.
	follow     *FollowerOptions
	repl       chan *replJob
	tailDone   chan struct{}
	replCtx    context.Context
	replCancel context.CancelFunc

	// Follower-side counters and gauges (see follower.go for semantics).
	leaderEpoch        atomic.Uint64
	replState          atomic.Int32
	nTailPolls         atomic.Uint64
	nTailErrors        atomic.Uint64
	nTailRecords       atomic.Uint64
	nTailTuples        atomic.Uint64
	nSnapFetches       atomic.Uint64
	nSnapFetchFailures atomic.Uint64
	nSnapFetchBytes    atomic.Uint64
	nRebootstraps      atomic.Uint64

	snap atomic.Pointer[snapshot]

	// Replicated read path. pool is nil when replication is disabled or its
	// bootstrap failed; replicaOK drops to false when a version freeze
	// fails, sending reads back through the primary until a later freeze
	// succeeds. epoch is advanced only by the worker goroutine (and New,
	// before the worker starts) but read from handler goroutines for
	// /statsz and ?epoch validation; it moves to a round's new value only
	// after that round's WAL records are written, so any epoch a reader
	// observes is fully durable.
	pool      *replica.Pool
	replicaOK atomic.Bool
	epoch     atomic.Uint64

	// memo holds registered constraints' verdicts per table-version vector,
	// shared by the primary and every replica (memo.go).
	memo *verdictMemo

	// Durability. st is nil when no data directory is configured.
	// constraintText is the rendered registry persisted in every snapshot.
	// The history fields back the ?epoch=N read path (see history.go).
	st             *store.Store
	constraintText string
	histMu         sync.Mutex
	history        map[uint64]*historyEntry
	histOrder      []uint64

	// metrics is the observability surface behind /metricsz: request and
	// stage latency histograms, response counters, and gauge callbacks over
	// the published snapshots. Built once in New, read lock-free after.
	metrics *serverMetrics

	// Request counters, incremented from handler goroutines.
	nChecks          atomic.Uint64
	nWitnesses       atomic.Uint64
	nUpdateJobs      atomic.Uint64
	nUpdateTuples    atomic.Uint64
	nBatches         atomic.Uint64
	nDeadlineRejects atomic.Uint64
	nQueueRejects    atomic.Uint64
	nReplicaChecks   atomic.Uint64
	nReplicaWitness  atomic.Uint64
	nReroutes        atomic.Uint64
	nEpochChecks     atomic.Uint64
	nWALErrors       atomic.Uint64
	nSnapshotErrors  atomic.Uint64
}

// worker is the goroutine that owns the primary checker. New builds it and
// starts its loop; nothing else holds it, so only the worker's methods can
// reach the checker, its catalog, index store and kernel.
type worker struct {
	*Server
	chk *core.Checker
	// batchesSinceSnap counts coalesced rounds since the last snapshot.
	batchesSinceSnap int
}

// snapshot is the worker-published view of checker and kernel state, read
// lock-free by /statsz. Indices are recounted only when updates run (node
// counting walks the index BDDs).
type snapshot struct {
	kernel  bdd.Stats // plain data: safe to hand to any goroutine
	checker core.Stats
	indices []IndexStats
	tables  []TableStats
}

// IndexStats describes one logical index for /statsz.
type IndexStats struct {
	Name  string `json:"name"`
	Table string `json:"table"`
	Cols  int    `json:"cols"`
	Nodes int    `json:"nodes"`
	// Projections counts the maintained projections the primary carries
	// for the index: those its own checks read and those its replicas'
	// reads demanded (replica.Pool.TakeDemand).
	Projections int `json:"projections"`
}

// TableStats describes one base table for /statsz.
type TableStats struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
	Cols int    `json:"cols"`
}

// New creates a Server over a checker whose indices are already built, with
// the given constraint registry, and starts its worker. The caller must not
// touch the checker (or its catalog, store or kernel) afterwards: the worker
// owns them. Close shuts the worker down.
func New(chk *core.Checker, constraints []logic.Constraint, opts Options) (*Server, error) {
	reg, err := NewRegistry(constraints)
	if err != nil {
		return nil, err
	}
	s := &Server{
		Registry: reg,
		opts:     opts.withDefaults(),
		started:  time.Now(),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		memo:     newVerdictMemo(),
	}
	s.checks = make(chan *checkJob, s.opts.QueueDepth)
	s.updates = make(chan *updateJob, s.opts.QueueDepth)
	s.coreOpts = chk.Options()
	s.epochSig = newEpochSignal()
	s.st = s.opts.Store
	if s.st != nil {
		s.constraintText = store.RenderConstraints(constraints)
		s.history = make(map[uint64]*historyEntry)
	}
	if s.opts.Follower != nil {
		if s.st == nil {
			return nil, fmt.Errorf("service: follower mode requires a durability store")
		}
		f := s.opts.Follower.withDefaults()
		if f.URL == "" {
			return nil, fmt.Errorf("service: follower mode requires the leader's URL")
		}
		s.follow = &f
		s.repl = make(chan *replJob)
		s.tailDone = make(chan struct{})
		s.replCtx, s.replCancel = context.WithCancel(context.Background())
		s.replState.Store(int32(replStateStarting))
	}
	initialEpoch := uint64(1)
	if s.opts.InitialEpoch > initialEpoch {
		initialEpoch = s.opts.InitialEpoch
	}
	s.epoch.Store(initialEpoch)
	if s.opts.Replicas > 0 {
		// Freeze the bootstrap version while we still own the checker (the
		// worker has not started). A failed freeze (e.g. the index copy
		// does not fit the node budget) degrades to the single-worker read
		// path instead of failing the server.
		if v, err := replica.NewVersion(chk, initialEpoch); err == nil {
			if pool, err := replica.New(s.opts.Replicas, v); err == nil {
				s.pool = pool
				s.replicaOK.Store(true)
			}
		}
	}
	// The first snapshot goes out before the metrics exist: their callbacks
	// read it unconditionally. Safe: the worker has not started yet.
	w := &worker{Server: s, chk: chk}
	w.publish(true)
	s.metrics = newServerMetrics(s) // after pool setup: per-replica gauges
	if s.pool != nil {
		s.pool.SetMetrics(&replica.Metrics{
			QueueWait: s.metrics.replicaQueueWait,
			Run:       s.metrics.replicaRun,
		})
	}
	if s.follow != nil {
		// The follower starts at the recovered epoch; until the first poll
		// answers, assume the leader is there.
		s.leaderEpoch.Store(initialEpoch)
		go s.tailLoop()
	}
	go w.run()
	return s, nil
}

// Close stops the worker (and, in follower mode, the tail loop), refusing
// queued and future work. It is idempotent and safe from any goroutine.
func (s *Server) Close() {
	s.closing.Do(func() {
		close(s.quit)
		if s.replCancel != nil {
			s.replCancel() // aborts an in-flight long-poll or snapshot fetch
		}
	})
	if s.tailDone != nil {
		<-s.tailDone
	}
	<-s.done
	if s.pool != nil {
		s.pool.Close()
	}
}

// jobs

// checkSpec is what a check or witness request asks for, as every dispatch
// path carries it.
type checkSpec struct {
	cts []logic.Constraint
	// registered counts the leading entries of cts that are the registry's
	// own (Registry.Resolve): only those are answered from, or stored in, the
	// verdict memo.
	registered int
	// budget is the explicit per-request node cap (0 = none).
	budget int
	// witnessLimit, when positive, turns the job into witness extraction
	// for cts[0].
	witnessLimit int
}

type checkJob struct {
	ctx context.Context
	checkSpec
	// submitted is the admission-queue entry time, for the queue_wait stage.
	submitted time.Time
	// trace collects the job's stage spans; nil when the request is untraced.
	trace *obs.Trace
	reply chan checkReply
}

type checkReply struct {
	results []core.Result
	// epoch is the epoch of the one version every result was decided on.
	epoch         uint64
	witnesses     []core.Witness
	witnessMethod core.Method
	err           error
}

type updateJob struct {
	ctx context.Context
	ups []core.Update
	// submitted is the admission-queue entry time, for the queue_wait stage.
	submitted time.Time
	// trace collects the job's stage spans; nil when the request is untraced.
	trace *obs.Trace
	reply chan updateReply
}

type updateReply struct {
	applied int
	err     error
}

// run is the worker loop. It alternates between applying every queued
// update batch and serving one check, so updates coalesce between checks.
func (w *worker) run() {
	defer close(w.done)
	for {
		// Coalesce: everything queued for update applies before the next
		// check is taken.
		select {
		case u := <-w.updates:
			w.applyBatch(w.gatherUpdates(u))
			continue
		default:
		}
		select {
		case <-w.quit:
			w.refuseQueued()
			return
		case u := <-w.updates:
			w.applyBatch(w.gatherUpdates(u))
		case j := <-w.repl: // nil (never fires) on a leader
			w.applyRepl(j)
		case c := <-w.checks:
			w.runCheck(c)
		}
	}
}

// gatherUpdates drains further queued update jobs behind first, bounded by
// maxBatch.
func (s *Server) gatherUpdates(first *updateJob) []*updateJob {
	batch := []*updateJob{first}
	for len(batch) < maxBatch {
		select {
		case u := <-s.updates:
			batch = append(batch, u)
		default:
			return batch
		}
	}
	return batch
}

// applyBatch applies each job of one coalesced round under a fresh epoch,
// each job logging its applied prefix before the checker takes it, and
// commits the round before it acknowledges any job. A job whose append
// fails changes nothing and is refused; jobs are independent, so it does
// not hold back the others. A round that applied no tuple leaves the epoch
// where it was.
func (w *worker) applyBatch(batch []*updateJob) {
	w.nBatches.Add(1)
	k := w.chk.Store().Kernel()
	epoch := w.epoch.Load() + 1
	replies := make([]updateReply, len(batch))
	traces := make([]*obs.Trace, len(batch))
	total := 0
	for i, u := range batch {
		traces[i] = u.trace
		if err := u.ctx.Err(); err != nil {
			w.nDeadlineRejects.Add(1)
			replies[i] = updateReply{err: err}
			continue
		}
		applyStart := time.Now()
		if !u.submitted.IsZero() {
			wait := applyStart.Sub(u.submitted)
			w.metrics.stQueueWait.Observe(wait)
			u.trace.Record("queue_wait", u.submitted, wait, nil)
		}
		before := k.Stats()
		var walD time.Duration
		applied, err := w.chk.ApplyLogged(u.ups, func(prefix []core.Update) error {
			if w.st == nil {
				return nil
			}
			walStart := time.Now()
			werr := w.st.AppendBatch(epoch, prefix)
			walD = time.Since(walStart)
			u.trace.Record("wal_append", walStart, walD, nil)
			if werr != nil {
				// Unlogged, so unapplied: the client must not treat the
				// batch as acknowledged.
				w.nWALErrors.Add(1)
				w.opts.SlowLog.Printf("wal append failed (epoch %d): %v", epoch, werr)
				return fmt.Errorf("service: batch not logged, so not applied: %w", werr)
			}
			return nil
		})
		// The wal_append span lies inside the apply span; the apply stage's
		// histogram leaves the append to cv_wal_append_seconds.
		d := time.Since(applyStart)
		w.metrics.stApply.Observe(d - walD)
		delta := k.Stats().DeltaSince(before)
		u.trace.Record("apply", applyStart, d, &delta)
		w.nUpdateTuples.Add(uint64(applied))
		total += applied
		replies[i] = updateReply{applied: applied, err: err}
	}
	if total > 0 {
		w.commit(epoch, traces)
	}
	for i, u := range batch {
		u.reply <- replies[i]
	}
}

// commit is the tail of every applied epoch, a leader's coalesced round and
// a follower's tailed epoch alike, and the one place its order is written.
// The epoch's records are already logged: the checker took each batch only
// after its log step succeeded. Then the frozen version publishes to the
// replica pool, the epoch becomes visible, /wal long-polls wake, and the
// round counts toward the next snapshot. A caller acknowledges only after
// commit returns, so an acknowledged update is durable and every check
// submitted after the ack sees it, whichever replica serves it. The freeze
// is recorded on each of traces, the jobs that waited on it.
func (w *worker) commit(epoch uint64, traces []*obs.Trace) {
	k := w.chk.Store().Kernel()
	freezeStart := time.Now()
	before := k.Stats()
	w.publishVersion(epoch)
	w.publish(true)
	fd := time.Since(freezeStart)
	w.metrics.stFreeze.Observe(fd)
	delta := k.Stats().DeltaSince(before)
	for _, tr := range traces {
		tr.Record("freeze", freezeStart, fd, &delta)
	}
	w.epoch.Store(epoch)
	w.epochSig.bump() // wakes /wal long-polls waiting for this epoch
	w.maybeSnapshot(epoch)
}

// publishVersion freezes the checker's current indices as the given epoch
// and hands them to the replica pool. A failed freeze routes reads back
// through the primary (replicaOK) rather than serving stale data; the next
// successful freeze re-enables the pool.
func (w *worker) publishVersion(epoch uint64) {
	if w.pool == nil {
		return
	}
	// The replicas' projection reads, replayed here, ride the version.
	w.chk.ReadProjections(w.pool.TakeDemand())
	v, err := replica.NewVersion(w.chk, epoch)
	if err != nil {
		w.replicaOK.Store(false)
		return
	}
	w.pool.Publish(v)
	w.replicaOK.Store(true)
}

// maybeSnapshot writes a snapshot once enough coalesced rounds have passed
// since the last one. A failed snapshot is logged and counted but does not
// fail updates (the WAL still covers them).
func (w *worker) maybeSnapshot(epoch uint64) {
	if w.st == nil {
		return
	}
	w.batchesSinceSnap++
	if w.opts.SnapshotEveryBatches <= 0 || w.batchesSinceSnap < w.opts.SnapshotEveryBatches {
		return
	}
	if err := w.st.WriteSnapshot(w.chk, w.constraintText, epoch); err != nil {
		w.nSnapshotErrors.Add(1)
		w.opts.SlowLog.Printf("snapshot at epoch %d failed: %v", epoch, err)
		return
	}
	w.batchesSinceSnap = 0
}

// runCheck serves one check or witness job under its node budget. The
// stats snapshot is refreshed before the reply goes out, so a client that
// has its answer reads its own effects from /statsz.
func (w *worker) runCheck(j *checkJob) {
	if !j.submitted.IsZero() {
		wait := time.Since(j.submitted)
		w.metrics.stQueueWait.Observe(wait)
		j.trace.Record("queue_wait", j.submitted, wait, nil)
	}
	if err := j.ctx.Err(); err != nil {
		w.nDeadlineRejects.Add(1)
		j.reply <- checkReply{err: err}
		return
	}
	opts := core.CheckOptions{NodeBudget: j.budget}
	var rep checkReply
	if j.witnessLimit > 0 {
		rep = w.runWitnesses(j.cts[0], j.witnessLimit, opts, j.trace)
	} else {
		// The worker owns the live catalog and the epoch counter: both are
		// the state this job reads, and no reload can run under it.
		pass := memoPass{registered: j.registered, gen: w.memo.generation()}
		rep = checkReply{results: w.evalAll(j.ctx, w.chk, j.cts, pass, opts, j.trace), epoch: w.epoch.Load()}
	}
	w.publish(false)
	j.reply <- rep
}

// evalAll validates cts in order on chk — the primary's checker, a replica's
// or a historical epoch's, whichever the calling goroutine owns. Registered
// constraints the pass admits are first looked up in the verdict memo at
// chk's own table versions, so hits and fresh evaluations hold at the same
// state; what was evaluated is stored for the next check. Once the deadline
// blows, the remaining constraints report the context error instead of
// burning more kernel time.
func (s *Server) evalAll(ctx context.Context, chk *core.Checker, cts []logic.Constraint, pass memoPass, opts core.CheckOptions, tr *obs.Trace) []core.Result {
	results := make([]core.Result, len(cts))
	var at []uint64
	var hit []bool
	hits := 0
	if pass.registered > 0 {
		memoStart := tr.Begin()
		at = tableVersions(chk.Catalog())
		hit, hits = s.memo.lookup(pass.gen, at, cts[:pass.registered], results)
		s.memo.count(hits, pass.registered-hits)
		tr.Lookups("memo", memoStart, hits, pass.registered-hits)
	}
	for i, ct := range cts {
		if i < len(hit) && hit[i] {
			continue
		}
		if err := ctx.Err(); err != nil {
			results[i] = core.Result{Constraint: ct, Err: err}
			continue
		}
		evalStart := tr.Begin()
		results[i] = chk.CheckOneOpts(ct, opts)
		s.observeResult(results[i], evalStart, tr)
	}
	if hits < pass.registered {
		s.memo.store(pass.gen, at, results[:pass.registered], hit)
	}
	return results
}

// observeResult feeds one validation's timings into the stage histograms and
// the request trace: the result's SQL share becomes a sql:<name> span, the
// remainder an eval:<name> span carrying the kernel delta (the SQL engine
// never touches the kernel).
func (s *Server) observeResult(res core.Result, evalStart time.Time, tr *obs.Trace) {
	bddD := res.BDDDuration()
	s.metrics.stEval.Observe(bddD)
	tr.Record("eval:"+res.Constraint.Name, evalStart, bddD, &res.Kernel)
	if res.SQLDuration > 0 {
		s.metrics.stSQL.Observe(res.SQLDuration)
		tr.Record("sql:"+res.Constraint.Name, evalStart.Add(bddD), res.SQLDuration, nil)
	}
}

// runWitnesses runs the checker's witness drill-down (core.Checker.Witnesses):
// the violation BDD first, the compiled SQL violation query when the BDD
// path fails. Each step is a span and a stage sample.
func (w *worker) runWitnesses(ct logic.Constraint, limit int, opts core.CheckOptions, tr *obs.Trace) checkReply {
	start := time.Now()
	res := w.chk.Witnesses(ct, limit, opts)
	w.metrics.stWitness.Observe(res.EnumDuration)
	tr.Record("witness_enum", start, res.EnumDuration, &res.Kernel)
	if res.Method == core.MethodSQL || res.Err != nil {
		w.metrics.stSQL.Observe(res.SQLDuration)
		tr.Record("sql:"+ct.Name, start.Add(res.EnumDuration), res.SQLDuration, nil)
	}
	return checkReply{witnesses: res.Witnesses, witnessMethod: res.Method, err: res.Err}
}

// refuseQueued acknowledges every queued job with ErrShuttingDown so no
// submitter is left waiting on a dead worker.
func (w *worker) refuseQueued() {
	for {
		select {
		case u := <-w.updates:
			u.reply <- updateReply{err: ErrShuttingDown}
		case c := <-w.checks:
			c.reply <- checkReply{err: ErrShuttingDown}
		case j := <-w.repl: // nil (never fires) on a leader
			j.reply <- replResult{err: ErrShuttingDown}
		default:
			return
		}
	}
}

// publish refreshes the stats snapshot. full recounts index nodes, which
// walks the index BDDs; check jobs publish light snapshots and reuse the
// last counts.
func (w *worker) publish(full bool) {
	snap := &snapshot{
		kernel:  w.chk.KernelStats(),
		checker: w.chk.Stats(),
	}
	for _, t := range w.chk.Catalog().Tables() {
		snap.tables = append(snap.tables, TableStats{Name: t.Name(), Rows: t.Len(), Cols: t.NumCols()})
	}
	if prev := w.snap.Load(); !full && prev != nil {
		snap.indices = prev.indices
	} else {
		store := w.chk.Store()
		for _, name := range store.Names() {
			ix := store.Index(name)
			snap.indices = append(snap.indices, IndexStats{
				Name:        name,
				Table:       ix.Table().Name(),
				Cols:        len(ix.Columns()),
				Nodes:       ix.NodeCount(),
				Projections: len(ix.Projections()),
			})
		}
	}
	w.snap.Store(snap)
}

// submission (called from handler goroutines)

// submitCheck serves a check (or witness) job: from the verdict memo or on
// the replicated read path when the pool is healthy, behind the primary
// worker otherwise.
func (s *Server) submitCheck(ctx context.Context, spec checkSpec, tr *obs.Trace) (checkReply, error) {
	if s.pool != nil && s.replicaOK.Load() {
		if spec.witnessLimit > 0 {
			if rep, ok := s.replicaWitnesses(ctx, spec.cts[0], spec.witnessLimit, spec.budget, tr); ok {
				s.nReplicaWitness.Add(1)
				return rep, nil
			}
		} else if rep, ok := s.memoCheck(ctx, spec, tr); ok {
			s.nReplicaChecks.Add(1)
			return rep, rep.err
		} else if rep, ok := s.replicaCheck(ctx, spec, tr); ok {
			s.nReplicaChecks.Add(1)
			return rep, rep.err
		}
	}
	return s.submitPrimaryCheck(ctx, spec, tr)
}

// memoCheck answers a check of registered constraints without a replica when
// the memo holds every verdict at the pool's latest version — the version a
// job dispatched now would be served on, or an older one than that, never a
// newer: an update is published before it is acknowledged, so the reply
// reflects every acknowledged write. It is the healthy pool's front door
// only: with the pool failed its latest version is stale, and the primary
// path looks up against the live catalog inside runCheck. ok is false when
// some verdict is missing; the job then goes to a replica, which looks up
// again at the version it serves. A full hit is still a request: it is
// refused after Close and past its deadline like any other.
func (s *Server) memoCheck(ctx context.Context, spec checkSpec, tr *obs.Trace) (checkReply, bool) {
	if spec.registered == 0 || spec.registered < len(spec.cts) {
		return checkReply{}, false
	}
	select {
	case <-s.quit:
		return checkReply{err: ErrShuttingDown}, true
	default:
	}
	if err := ctx.Err(); err != nil {
		s.nDeadlineRejects.Add(1)
		return checkReply{err: err}, true
	}
	memoStart := tr.Begin()
	gen := s.memo.generation() // before Latest, as a replica job reads it before its worker picks a version
	v := s.pool.Latest()
	results := make([]core.Result, len(spec.cts))
	_, hits := s.memo.lookup(gen, tableVersions(v.Catalog()), spec.cts, results)
	if hits < len(spec.cts) {
		return checkReply{}, false
	}
	s.memo.count(hits, 0)
	tr.Lookups("memo", memoStart, hits, 0)
	return checkReply{results: results, epoch: v.Epoch()}, true
}

// replicaCheck runs a check job on some replica worker. Constraints the
// replica cannot decide — they need the SQL fallback, which must see the
// live tables — are rerouted to the primary worker and merged back by
// position. ok is false when the pool could not take the job at all (closed
// or failed materialization); the caller then retries on the primary.
func (s *Server) replicaCheck(ctx context.Context, spec checkSpec, tr *obs.Trace) (checkReply, bool) {
	var results []core.Result
	var epoch uint64
	opts := core.CheckOptions{NodeBudget: spec.budget, NoSQLFallback: true}
	// The generation is read before a worker picks its version: a job that
	// starts ahead of a follower reload cannot store into the memo after it.
	pass := memoPass{registered: spec.registered, gen: s.memo.generation()}
	submitted := tr.Begin()
	err := s.pool.DoTraced(ctx, tr, func(chk *core.Checker, served uint64) {
		tr.Span("queue_wait", submitted)
		results, epoch = s.evalAll(ctx, chk, spec.cts, pass, opts, tr), served
	})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return checkReply{err: err}, true
		}
		return checkReply{}, false
	}
	// Constraints that reported a needed fallback rerun on the primary.
	var reroute []int
	for i, res := range results {
		if res.FellBack && res.Err != nil {
			reroute = append(reroute, i)
		}
	}
	if len(reroute) > 0 {
		s.nReroutes.Add(uint64(len(reroute)))
		sub := make([]logic.Constraint, len(reroute))
		for j, i := range reroute {
			sub[j] = spec.cts[i]
		}
		rep, err := s.submitPrimaryCheck(ctx, checkSpec{cts: sub, budget: spec.budget}, tr)
		if err != nil {
			return checkReply{err: err}, true
		}
		if rep.epoch != epoch {
			// An update landed between the replica's version and the
			// primary's turn. One reply, one version: the primary, which is
			// at the newer one, answers the lot.
			rep, err = s.submitPrimaryCheck(ctx, spec, tr)
			return checkReply{results: rep.results, epoch: rep.epoch, err: err}, true
		}
		for j, i := range reroute {
			results[i] = rep.results[j]
		}
	}
	return checkReply{results: results, epoch: epoch}, true
}

// replicaWitnesses extracts witnesses on a replica. A definite BDD answer —
// witnesses, or none because the constraint holds — is served from the
// replica; a BDD error (budget blown, missing index, existence mode) routes
// to the primary, which alone can run the SQL fallback on the live tables.
func (s *Server) replicaWitnesses(ctx context.Context, ct logic.Constraint, limit, budget int, tr *obs.Trace) (checkReply, bool) {
	var ws []core.Witness
	var werr error
	opts := core.CheckOptions{NodeBudget: budget}
	submitted := tr.Begin()
	err := s.pool.DoTraced(ctx, tr, func(chk *core.Checker, _ uint64) {
		tr.Span("queue_wait", submitted)
		k := chk.Store().Kernel()
		enumStart := time.Now()
		before := k.Stats()
		ws, werr = chk.ViolationWitnessesOpts(ct, limit, opts)
		enumD := time.Since(enumStart)
		s.metrics.stWitness.Observe(enumD)
		delta := k.Stats().DeltaSince(before)
		tr.Record("witness_enum", enumStart, enumD, &delta)
	})
	if err != nil || werr != nil {
		return checkReply{}, false
	}
	return checkReply{witnesses: ws, witnessMethod: core.MethodBDD}, true
}

// submitPrimaryCheck queues a check (or witness) job on the primary worker
// and waits for its reply.
func (s *Server) submitPrimaryCheck(ctx context.Context, spec checkSpec, tr *obs.Trace) (checkReply, error) {
	j := &checkJob{
		ctx:       ctx,
		checkSpec: spec,
		submitted: time.Now(),
		trace:     tr,
		reply:     make(chan checkReply, 1),
	}
	select {
	case s.checks <- j:
	case <-ctx.Done():
		s.nQueueRejects.Add(1)
		return checkReply{}, fmt.Errorf("%w (%v)", ErrBusy, ctx.Err())
	case <-s.quit:
		return checkReply{}, ErrShuttingDown
	}
	select {
	case rep := <-j.reply:
		return rep, rep.err
	case <-ctx.Done():
		// The worker may still serve the job; the buffered reply channel
		// means it will not block on our departure.
		return checkReply{}, ctx.Err()
	case <-s.quit:
		return checkReply{}, ErrShuttingDown
	}
}

// submitUpdate queues an update job and waits for its acknowledgement.
func (s *Server) submitUpdate(ctx context.Context, ups []core.Update, tr *obs.Trace) (int, error) {
	j := &updateJob{
		ctx: ctx, ups: ups,
		submitted: time.Now(),
		trace:     tr,
		reply:     make(chan updateReply, 1),
	}
	select {
	case s.updates <- j:
	case <-ctx.Done():
		s.nQueueRejects.Add(1)
		return 0, fmt.Errorf("%w (%v)", ErrBusy, ctx.Err())
	case <-s.quit:
		return 0, ErrShuttingDown
	}
	select {
	case rep := <-j.reply:
		return rep.applied, rep.err
	case <-ctx.Done():
		return 0, ctx.Err()
	case <-s.quit:
		return 0, ErrShuttingDown
	}
}
