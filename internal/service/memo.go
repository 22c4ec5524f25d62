package service

// memo.go is the verdict memo: the last verdict of each registered
// constraint, with the table versions it was decided on. The paper builds
// logical indices once so that "which of my constraints are violated" can be
// asked over and over (§2.3, §5); between two updates the answer to that
// question does not change, and the memo is what stops the server working it
// out again.
//
// Key. A verdict is stored under the vector of relation.Table.Version() over
// the catalog it was decided on, in catalog order — the signal the
// evaluator's predicate cache already invalidates by, cloned into every
// frozen catalog. So no write path knows the memo exists: an update
// invalidates by moving a counter, a publish that applied nothing invalidates
// nothing, and a verdict decided on one replica serves the primary and every
// other replica at the same state. The whole vector is compared, on purpose:
// a quantified variable ranges over its column's dictionary, dictionaries are
// shared across tables, and an insert into one table can therefore change
// the verdict of a constraint that names only another.
//
// What is stored. Only a registered constraint — Registry.Resolve says which
// entries of a request those are; a request may declare other text under a
// registered name — and only a clean BDD verdict: a result that fell back,
// failed, or was decided by SQL depends on the request's budget and deadline,
// not on the data alone. One entry per registered constraint: the registry
// bounds the memo.
//
// Who stays away. A pinned ?epoch=N read runs on a checker rebuilt from
// snapshot + WAL whose version counters are unrelated to the live ones: it
// presents the zero pass and neither reads nor writes. A follower reload
// replaces the catalog with a recovered one, possibly at an epoch already
// served: it suspends the memo across the swap, which drops every entry and
// invalidates every pass handed out before or during it.

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/relation"
)

// verdictMemo is safe for concurrent use; handler goroutines, replica
// workers and the primary worker all reach it.
type verdictMemo struct {
	mu sync.Mutex
	// gen is the current generation, from 1. A check reads it (generation)
	// before it learns which catalog it will run on and presents it with
	// every lookup and store; suspend moves it, so a check that started
	// before a reload — on a catalog of the old lineage, whose version vector
	// may coincide with one of the new — neither reads what the new lineage
	// stored nor stores beside it. While suspended no check is handed the
	// current generation at all.
	gen       uint64
	suspended bool
	entries   map[string]memoEntry // by registered constraint name

	hits, misses atomic.Uint64
}

// memoEntry is one constraint's verdict, stripped of what described the
// evaluation rather than the state (duration, kernel delta).
type memoEntry struct {
	res core.Result
	at  []uint64
}

// memoPass is a check's admission to the memo: its leading registered
// constraints are the registry's own, and gen is the generation it read
// before dispatch. The zero pass admits nothing.
type memoPass struct {
	registered int
	gen        uint64
}

func newVerdictMemo() *verdictMemo {
	return &verdictMemo{gen: 1, entries: map[string]memoEntry{}}
}

// tableVersions is the memo key of the database state cat holds.
func tableVersions(cat *relation.Catalog) []uint64 {
	tables := cat.Tables()
	at := make([]uint64, len(tables))
	for i, t := range tables {
		at[i] = t.Version()
	}
	return at
}

// generation returns the stamp a check starting now presents; zero, which
// admits nothing, while a reload has the memo suspended.
func (m *verdictMemo) generation() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.suspended {
		return 0
	}
	return m.gen
}

// lookup fills results[i] for every cts[i] — registered constraints all —
// whose verdict is memoised at the table versions at, and reports which and
// how many. Both lookup sites go through here: the front door of the replica
// pool and evalAll on whichever checker a job runs on.
func (m *verdictMemo) lookup(gen uint64, at []uint64, cts []logic.Constraint, results []core.Result) (hit []bool, hits int) {
	hit = make([]bool, len(cts))
	m.mu.Lock()
	defer m.mu.Unlock()
	if gen != m.gen {
		return hit, 0
	}
	for i, ct := range cts {
		if e, ok := m.entries[ct.Name]; ok && slices.Equal(e.at, at) {
			results[i], hit[i] = e.res, true
			hits++
		}
	}
	return hit, hits
}

// store memoises the results a lookup at the same gen and at left to
// evaluation (hit says which it answered itself), those that are facts about
// the state only. at must not be modified afterwards.
func (m *verdictMemo) store(gen uint64, at []uint64, results []core.Result, hit []bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if gen != m.gen {
		return
	}
	for i, res := range results {
		if hit[i] || res.Err != nil || res.FellBack || res.Method != core.MethodBDD {
			continue
		}
		m.entries[res.Constraint.Name] = memoEntry{
			res: core.Result{Constraint: res.Constraint, Violated: res.Violated, Method: res.Method},
			at:  at,
		}
	}
}

// count adds one check's lookups to the /statsz and /metricsz counters.
func (m *verdictMemo) count(hits, misses int) {
	m.hits.Add(uint64(hits))
	m.misses.Add(uint64(misses))
}

// suspend empties the memo and shuts it until resume: nothing hits, nothing
// is stored, and no pass read before or during the suspension is honoured
// after it. The worker brackets a catalog swap with the pair.
func (m *verdictMemo) suspend() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gen++
	m.suspended = true
	m.entries = map[string]memoEntry{}
}

func (m *verdictMemo) resume() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.suspended = false
}
