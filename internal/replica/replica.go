// Package replica implements the replicated-kernel read path: N read-only
// copies of the primary checker's logical indices, each with its own BDD
// kernel, operation caches and evaluator, so constraint checks fan out
// across cores with zero shared mutable state. BDD kernels are not
// thread-safe and a shared unique table would serialize every lookup behind
// a lock; replicating the (physically small, structurally shared) index
// DAGs per worker removes all contention, the same trick factorised-
// representation query engines use to keep reads lock-free.
//
// Ownership rules:
//
//   - The primary checker is owned exclusively by whoever applies writes
//     (internal/service's worker goroutine). Replicas never see it.
//   - After each write batch the primary's owner freezes a Version — an
//     immutable snapshot (catalog clone + the index roots and their
//     maintained projections exported as one bdd.Image, a node list that
//     belongs to no kernel) — and Publishes it. Building a Version reads the
//     primary, so it must happen on the owner's goroutine.
//   - Projections travel with the index: a replica adopts the projections
//     the primary maintains instead of computing its own. Only the primary
//     maintains, so it must learn what replicas read: a worker moves its
//     kernel's projection reads (index.Store.TakeDemand) into the pool after
//     each job, and the owner takes them (Pool.TakeDemand) and reads them on
//     the primary (core.Checker.ReadProjections) before it freezes the next
//     Version.
//   - Pool workers each own one replica checker. A worker notices a newer
//     Version between requests and adopts it; in-flight work always
//     finishes on the version it started with. A replica is a kernel, not
//     an epoch: the worker advances the checker it has in place — the new
//     roots are re-interned into its kernel, which finds every node the two
//     versions share and allocates the batch's delta, the indices are
//     rebound, and the kernel, its operation caches and the evaluator's
//     scratch state live on — and ends the adoption with a collection
//     (bdd.Kernel.GC) that frees the replaced index paths but, like every
//     collection, keeps each cache entry that is still about live nodes, so
//     the first recheck after an update pays for the delta; the projections
//     it reads arrived with the version. A worker builds a fresh checker from
//     the image only when it has none yet or cannot follow: the index
//     geometry moved, or the delta does not fit the node budget
//     (Pool.Rebuilds counts these).
//   - A worker remembers which publication its checker holds, not the
//     Version, and an advanced checker reads the new version's catalog
//     only: once every reference to a retired Version is gone its image —
//     a copy of the whole index — and its catalog are garbage, however long
//     a worker that adopted it sits idle.
//   - A worker's kernel counters are reported per epoch (Stats.Kernel): its
//     kernel's own counters no longer restart when it adopts.
//   - A Version is never mutated after construction: its catalog is a
//     frozen clone and its image is only read (bdd.Kernel.Import does not
//     touch it), so any number of workers may adopt from it concurrently.
package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/relation"
)

// ErrClosed is returned by Do after the pool has been closed.
var ErrClosed = errors.New("replica: pool closed")

// Version is one immutable snapshot of the primary's catalog and indices: a
// catalog clone, the index roots and their maintained projections as one
// bdd.Image, and the index geometry to re-register them by. It holds no
// kernel. The zero epoch is never published; epochs increase with every
// handoff.
type Version struct {
	epoch   uint64
	catalog *relation.Catalog
	img     *bdd.Image
	snaps   []core.IndexSnapshot
	opts    core.Options // the primary's: what a replica checker is created with
	debug   bool         // the primary kernel's DebugChecks, which its replicas inherit
}

// NewVersion freezes the primary checker into an immutable snapshot tagged
// with epoch. It must be called from the goroutine that owns the primary
// (it reads the primary's catalog and kernel); the returned Version is safe
// to share. The snapshot deep-clones the catalog metadata while sharing the
// encoded row storage (rows are never mutated in place) and exports every
// index root and maintained projection into an image, so later writes to the
// primary cannot reach it.
func NewVersion(primary *core.Checker, epoch uint64) (*Version, error) {
	img, snaps, err := primary.ExportIndices()
	if err != nil {
		return nil, fmt.Errorf("replica: freezing epoch %d: %w", epoch, err)
	}
	return &Version{
		epoch: epoch, catalog: primary.Catalog().Clone(), img: img, snaps: snaps,
		opts: primary.Options(), debug: primary.Kernel().DebugChecks(),
	}, nil
}

// Epoch returns the version's epoch.
func (v *Version) Epoch() uint64 { return v.epoch }

// Catalog returns the version's frozen catalog: the tables, at the table
// versions, every replica of this version reads. It is never mutated.
func (v *Version) Catalog() *relation.Catalog { return v.catalog }

// Materialize brings a replica checker to this version: chk itself, advanced
// in place, when there is one and it can follow (the same indices over the
// same blocks, and room in the budget for the difference), a freshly built
// checker otherwise. It leaves the collection
// that frees the replaced index paths to the caller. On error chk is
// untouched and still serves the version it served.
func (v *Version) Materialize(chk *core.Checker) (*core.Checker, error) {
	if chk != nil && chk.AdvanceIndices(v.catalog, v.img, v.snaps) == nil {
		return chk, nil
	}
	// A fresh checker shares the immutable catalog (checks only read it) but
	// owns its kernel, caches and evaluator, populated by one Import.
	chk = core.New(v.catalog, v.opts)
	// A primary run under DebugChecks (the soaks) has its replicas checked too.
	chk.Kernel().SetDebugChecks(v.debug)
	if err := chk.AdoptIndices(v.img, v.snaps); err != nil {
		return nil, fmt.Errorf("replica: materializing epoch %d: %w", v.epoch, err)
	}
	return chk, nil
}

// Stats is one worker's counters, published after every job and swap.
type Stats struct {
	// Worker is the worker's index in the pool.
	Worker int
	// Epoch is the version the worker currently serves; zero until its
	// first job.
	Epoch uint64
	// Jobs counts requests served by this worker.
	Jobs uint64
	// Kernel snapshots the worker's private kernel counters. The monotonic
	// ones (Ops, Allocs, cache hits and lookups) count from the adoption of
	// Epoch — a reader that saw Epoch move adds the whole count, one that did
	// not adds the difference, whether the swap built a kernel or kept one —
	// and the gauges (Live, Peak, Capacity, GCRuns, cache sizes) are the
	// kernel's own.
	Kernel bdd.Stats
	// Checker accumulates the worker's decision counters across every
	// version it has served (a checker a rebuild discards has its counters
	// folded in rather than lost). Replicas never run the SQL fallback, so
	// SQLFallbacks stays zero here; rerouted constraints are counted by the
	// primary.
	Checker core.Stats
}

// Pool runs a fixed set of replica workers. Reads are submitted with Do;
// new index versions arrive via Publish and are picked up by each worker
// between requests.
type Pool struct {
	// latest is the newest publication. published numbers them: a worker
	// compares the number, not the epoch (a follower re-bootstrap can
	// republish an epoch it already served) and not the *Version (holding
	// it would pin the retired version's kernel).
	latest    atomic.Pointer[publication]
	published atomic.Uint64
	// idle queues the workers with nothing to do, longest idle first, and
	// work[i] hands worker i its next job. A worker rejoins idle before it
	// reports its job done, so which worker serves a caller's next job
	// follows from the order jobs finished in, not from when the scheduler
	// next runs the worker's goroutine: what a check costs depends on what
	// its replica's caches hold, and a caller that submits one job at a time
	// must meet the same sequence of replicas on every run.
	idle    chan int
	work    []chan job
	workers int

	mu     sync.RWMutex // guards send-vs-close on work
	closed bool
	wg     sync.WaitGroup

	swaps    atomic.Uint64
	rebuilds atomic.Uint64
	stats    []atomic.Pointer[Stats]

	// demand collects the projections the workers' kernels read, until the
	// primary's owner takes them (TakeDemand).
	demandMu sync.Mutex
	demand   index.DemandSet

	// metrics, when set, receives per-job latency observations. Written
	// once before traffic (SetMetrics), read by Do and the workers.
	metrics atomic.Pointer[Metrics]
}

// Metrics is the pool's hook into the observability layer: per-job queue
// wait (submission to worker pickup) and run time histograms. All fields
// may be nil to skip the corresponding observation.
type Metrics struct {
	// QueueWait observes submission-to-pickup latency per job.
	QueueWait *obs.Histogram
	// Run observes the job body's execution time (including any lazy
	// version materialization it triggered).
	Run *obs.Histogram
}

// SetMetrics installs latency instrumentation. Call it before the pool
// serves traffic; jobs already in flight may be recorded partially.
func (p *Pool) SetMetrics(m *Metrics) { p.metrics.Store(m) }

// publication is one Publish: the version and its number in publish order.
type publication struct {
	v   *Version
	seq uint64
}

type job struct {
	fn        func(chk *core.Checker, epoch uint64)
	trace     *obs.Trace // nil unless the request is traced
	submitted time.Time  // zero when the pool is uninstrumented
	err       chan error
}

// New starts a pool of n workers serving v. Workers materialize their
// replica lazily on first use, so constructing a pool is cheap.
func New(n int, v *Version) (*Pool, error) {
	if n < 1 {
		return nil, fmt.Errorf("replica: pool needs at least 1 worker, got %d", n)
	}
	if v == nil {
		return nil, errors.New("replica: pool needs an initial version")
	}
	p := &Pool{
		idle:    make(chan int, n),
		work:    make([]chan job, n),
		workers: n,
		stats:   make([]atomic.Pointer[Stats], n),
	}
	p.Publish(v)
	for i := 0; i < n; i++ {
		p.work[i] = make(chan job, 1) // an idle worker's channel always has room
		p.idle <- i
		p.stats[i].Store(&Stats{Worker: i})
		p.wg.Add(1)
		go p.worker(i)
	}
	return p, nil
}

// Size returns the number of workers.
func (p *Pool) Size() int { return p.workers }

// Latest returns the newest published version: what a job submitted now
// would be served on, or a later one.
func (p *Pool) Latest() *Version { return p.latest.Load().v }

// Epoch returns the epoch of the latest published version.
func (p *Pool) Epoch() uint64 { return p.Latest().Epoch() }

// Swaps returns how many version handoffs workers have completed (the
// initial materialization of each worker counts as one).
func (p *Pool) Swaps() uint64 { return p.swaps.Load() }

// Rebuilds returns how many of those handoffs built a fresh checker instead
// of advancing the worker's own: each worker's first, and every one after
// which the worker could not follow in place (the primary rebuilt an index,
// or the difference did not fit the node budget). A pool whose Rebuilds
// keeps pace with its Swaps imports the whole index into a cold kernel per
// epoch.
func (p *Pool) Rebuilds() uint64 { return p.rebuilds.Load() }

// TakeDemand returns the projections the workers' kernels have read since
// the last TakeDemand, each once and in a deterministic order, and clears
// them. The primary's owner reads them on the primary before it freezes the
// next version (core.Checker.ReadProjections), so that version carries them:
// a replica that advances to it adopts the projections it reads instead of
// recomputing them.
func (p *Pool) TakeDemand() []index.Demand {
	p.demandMu.Lock()
	defer p.demandMu.Unlock()
	return p.demand.Take()
}

// Publish hands a new version to the pool. Workers swap to it before their
// next request; in-flight requests finish on the version they started with.
// Publish never blocks and is safe to call concurrently with Do, though
// versions must be produced by a single owner to keep epochs monotonic.
func (p *Pool) Publish(v *Version) {
	p.latest.Store(&publication{v: v, seq: p.published.Add(1)})
}

// Stats returns the latest per-worker counters, in worker order.
func (p *Pool) Stats() []Stats {
	out := make([]Stats, p.workers)
	for i := range p.stats {
		out[i] = *p.stats[i].Load()
	}
	return out
}

// Do runs fn on some replica worker and waits for it to finish. fn receives
// the worker's private checker and the epoch it serves; it must not retain
// the checker past its return. Submission respects ctx, but once a worker
// has accepted the job Do waits for completion regardless of ctx — fn
// typically writes into the caller's locals. Do returns ErrClosed after
// Close, or the worker's materialization error if the replica could not be
// built.
func (p *Pool) Do(ctx context.Context, fn func(chk *core.Checker, epoch uint64)) error {
	return p.DoTraced(ctx, nil, fn)
}

// DoTraced is Do for a traced request: when the worker has a version to
// adopt before it can run fn, tr receives an "adopt" span carrying the
// kernel's movement and, inside it, a "collect" span for the collection that
// ends an in-place adoption. A nil tr records nothing.
func (p *Pool) DoTraced(ctx context.Context, tr *obs.Trace, fn func(chk *core.Checker, epoch uint64)) error {
	jb := job{fn: fn, trace: tr, err: make(chan error, 1)}
	if p.metrics.Load() != nil {
		jb.submitted = time.Now()
	}
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return ErrClosed
	}
	// The read lock is held across the (possibly blocking) wait for a worker
	// and the hand-off so Close cannot close the worker's channel under a
	// pending send: workers keep finishing jobs until Close gets the write
	// lock, so an idle one always turns up.
	select {
	case w := <-p.idle:
		p.work[w] <- jb
		p.mu.RUnlock()
	case <-ctx.Done():
		p.mu.RUnlock()
		return ctx.Err()
	}
	return <-jb.err
}

// Close stops the workers after draining already-accepted jobs. Do calls
// racing with Close either complete or return ErrClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for _, ch := range p.work {
		close(ch)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *Pool) worker(i int) {
	defer p.wg.Done()
	// serving is the number of the publication chk holds (zero before the
	// first), epoch that version's epoch and base the kernel's counters when
	// chk adopted it.
	var serving, epoch uint64
	var chk *core.Checker
	var base bdd.Stats
	var jobs uint64
	var retired core.Stats // counters of checkers discarded by rebuilds
	for jb := range p.work[i] {
		m := p.metrics.Load()
		var picked time.Time
		if m != nil {
			picked = time.Now()
			if m.QueueWait != nil && !jb.submitted.IsZero() {
				m.QueueWait.Observe(picked.Sub(jb.submitted))
			}
		}
		if pub := p.latest.Load(); pub.seq != serving {
			adoptStart := jb.trace.Begin()
			var before bdd.Stats // a rebuild's kernel starts from zero
			if chk != nil {
				before = chk.Kernel().Stats()
			}
			next, err := pub.v.Materialize(chk)
			if err != nil && chk == nil {
				// No fallback version to serve: fail this job.
				p.idle <- i
				jb.err <- err
				continue
			}
			if err == nil {
				if next != chk { // built, not advanced
					if chk != nil {
						retired = addStats(retired, chk.Stats())
					}
					before = bdd.Stats{}
					p.rebuilds.Add(1)
				} else {
					// The kernel lives on, and so would every index path this
					// version replaced: collect, keeping what the caches
					// hold about the paths it did not.
					collectStart := jb.trace.Begin()
					next.Kernel().GC()
					jb.trace.Span("collect", collectStart)
				}
				serving, epoch, chk, base = pub.seq, pub.v.epoch, next, before
				p.swaps.Add(1)
				jb.trace.SpanKernel("adopt", adoptStart, chk.Kernel().Stats().DeltaSince(before))
			}
			// On error with a previous version in hand, keep serving it;
			// the next publish retries the swap.
		}
		jb.fn(chk, epoch)
		// The demand is in the pool before the job is reported done, so an
		// update its caller sends next replays it.
		if ds := chk.TakeDemand(); len(ds) > 0 {
			p.demandMu.Lock()
			for _, d := range ds {
				p.demand.Add(d.Index, d.Keep)
			}
			p.demandMu.Unlock()
		}
		if m != nil && m.Run != nil {
			m.Run.Observe(time.Since(picked))
		}
		jobs++
		p.stats[i].Store(&Stats{
			Worker: i, Epoch: epoch, Jobs: jobs,
			Kernel: chk.Kernel().Stats().Since(base), Checker: addStats(retired, chk.Stats()),
		})
		p.idle <- i
		jb.err <- nil
	}
}

func addStats(a, b core.Stats) core.Stats {
	a.BDDChecks += b.BDDChecks
	a.FDFastPath += b.FDFastPath
	a.SQLFallbacks += b.SQLFallbacks
	a.Errors += b.Errors
	return a
}
