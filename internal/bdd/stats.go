package bdd

// stats.go exposes the kernel's counters as an immutable snapshot, and the
// node budget as a runtime-adjustable limit. Both exist for long-lived
// deployments (cmd/cvserved): a service caps a request's evaluation at its
// own node budget, and reports kernel health from snapshots taken at job
// boundaries.

// Stats is a point-in-time copy of the kernel's counters. The value is plain
// data: once taken it can be handed to any goroutine (a server publishes the
// latest snapshot through an atomic pointer for its stats endpoint). Taking
// the snapshot, like every other Kernel method, must be serialized with
// kernel mutations.
type Stats struct {
	// Live is the number of live nodes, including the two terminals.
	Live int
	// Peak is the largest Live ever observed (garbage collection lowers
	// Live, never Peak).
	Peak int
	// Capacity is the number of allocated node-table slots.
	Capacity int
	// Vars is the number of boolean variables.
	Vars int
	// Budget is the current node budget; 0 means unlimited.
	Budget int
	// GCRuns counts completed garbage collections.
	GCRuns int
	// Ops counts recursive apply steps, a proxy for work performed.
	Ops uint64
	// CacheHits counts operation-cache hits across all three caches.
	CacheHits uint64
	// CacheEntries is the apply cache's current size in entries (the other
	// two caches report their own sizes below).
	CacheEntries int
	// Allocs counts node allocations since kernel creation. Unlike Live it
	// is monotonic — garbage collection never lowers it — which makes the
	// difference of two snapshots a meaningful "nodes allocated" figure for
	// the work between them.
	Allocs uint64

	// Per-operation cache figures. Each cache is sized independently;
	// lookups and hits are monotonic, so two snapshots give a windowed hit
	// rate.
	ApplyLookups   uint64
	ApplyHits      uint64
	QuantLookups   uint64
	QuantHits      uint64
	QuantEntries   int
	ReplaceLookups uint64
	ReplaceHits    uint64
	ReplaceEntries int
}

// Delta is the movement of the kernel's monotonic counters between two
// snapshots, attributing kernel work (node allocation, GC pressure, cache
// effectiveness, apply steps) to the operation bracketed by the snapshots. A
// request-tracing layer takes one snapshot per pipeline stage; both
// snapshots must be taken on the goroutine that owns the kernel.
type Delta struct {
	// NodesAllocated is how many nodes the stage allocated (reused free-list
	// slots included).
	NodesAllocated uint64
	// GCRuns is how many garbage collections ran during the stage.
	GCRuns int
	// CacheHits is the operation-cache hits scored by the stage.
	CacheHits uint64
	// Ops is the recursive apply steps executed by the stage.
	Ops uint64
}

// DeltaSince returns the counter movement from prev to s. The snapshots must
// come from the same kernel with prev taken first; monotonic counters then
// guarantee non-negative fields.
func (s Stats) DeltaSince(prev Stats) Delta {
	return Delta{
		NodesAllocated: s.Allocs - prev.Allocs,
		GCRuns:         s.GCRuns - prev.GCRuns,
		CacheHits:      s.CacheHits - prev.CacheHits,
		Ops:            s.Ops - prev.Ops,
	}
}

// Since returns s with its monotonic counters (Ops, Allocs, the caches' hits
// and lookups) reduced by base's and its gauges (Live, Peak, Capacity,
// GCRuns, sizes) as they are: the view of a kernel whose counting starts at
// base. A kernel that outlives the thing it is counted for — a replica's,
// across index versions — is reported this way.
func (s Stats) Since(base Stats) Stats {
	s.Ops -= base.Ops
	s.Allocs -= base.Allocs
	s.CacheHits -= base.CacheHits
	s.ApplyLookups -= base.ApplyLookups
	s.ApplyHits -= base.ApplyHits
	s.QuantLookups -= base.QuantLookups
	s.QuantHits -= base.QuantHits
	s.ReplaceLookups -= base.ReplaceLookups
	s.ReplaceHits -= base.ReplaceHits
	return s
}

// Add accumulates two deltas, for rolling consecutive stages into one.
func (d Delta) Add(o Delta) Delta {
	d.NodesAllocated += o.NodesAllocated
	d.GCRuns += o.GCRuns
	d.CacheHits += o.CacheHits
	d.Ops += o.Ops
	return d
}

// IsZero reports whether the delta records no kernel movement at all.
func (d Delta) IsZero() bool { return d == Delta{} }

// Stats takes a snapshot of the kernel's counters.
func (k *Kernel) Stats() Stats {
	return Stats{
		Live:           k.live,
		Peak:           k.peak,
		Capacity:       len(k.level),
		Vars:           k.numVars,
		Budget:         k.budget,
		GCRuns:         k.gcCount,
		Ops:            k.appliedCount,
		CacheHits:      k.applyHits + k.quantHits + k.replaceHits,
		CacheEntries:   len(k.applyCache),
		Allocs:         k.allocCount,
		ApplyLookups:   k.applyLookups,
		ApplyHits:      k.applyHits,
		QuantLookups:   k.quantLookups,
		QuantHits:      k.quantHits,
		QuantEntries:   len(k.quantCache),
		ReplaceLookups: k.replaceLookups,
		ReplaceHits:    k.replaceHits,
		ReplaceEntries: len(k.replaceCache),
	}
}

// Budget returns the current node budget; 0 means unlimited.
func (k *Kernel) Budget() int { return k.budget }

// SetBudget replaces the node budget (0 or negative means unlimited) and
// re-caps the GC trigger, which stays based on the live count after the last
// collection: garbage made since does not raise it. Lowering the budget below
// the current live count makes the next allocating operation abort with
// ErrBudget — which callers treat as the usual fall-back-to-SQL signal —
// while operations that only touch existing nodes still succeed. A service
// lowers the budget before evaluating a request that carries its own and
// restores it afterwards.
func (k *Kernel) SetBudget(n int) {
	if n < 0 {
		n = 0
	}
	k.budget = n
	k.resetGCTrigger()
}
