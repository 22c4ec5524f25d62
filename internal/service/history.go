package service

// history.go serves point-in-time reads: /check?epoch=N evaluates
// constraints against the database as of epoch N, materialized from the
// durability store (snapshot + WAL replay) rather than the live checker.
// Materialized epochs are cached so a client paging through witnesses of a
// historical violation does not pay the restore cost per request.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/logic"
)

// ErrFutureEpoch is returned for ?epoch=N beyond the current epoch.
var ErrFutureEpoch = errors.New("service: epoch not reached yet")

// ErrNoHistory is returned for ?epoch=N when the server runs without a
// durability store.
var ErrNoHistory = errors.New("service: no data directory; historical epochs unavailable")

// maxHistoryEntries bounds the materialized-epoch cache. Each entry owns a
// full private kernel, so the cache is deliberately small; eviction is FIFO.
const maxHistoryEntries = 4

// historyEntry is one materialized historical epoch. The checker owns a
// private kernel (restored from the snapshot, not shared with the live
// checker), so the only synchronization needed is mu serializing evaluation
// on that kernel.
type historyEntry struct {
	mu  chan struct{} // 1-buffered semaphore; also serves as "ready" latch
	chk *core.Checker
	err error
}

// CurrentEpoch reports the epoch of the last durably acknowledged update
// round (or the boot epoch when no updates have run).
func (s *Server) CurrentEpoch() uint64 { return s.epoch.Load() }

// checkAtEpoch evaluates cts against the database image at the given past
// epoch. The image is restored from the newest retained snapshot at or
// before the epoch plus WAL replay, cached for subsequent requests, and
// evaluated under the request's node budget.
func (s *Server) checkAtEpoch(ctx context.Context, epoch uint64, cts []logic.Constraint, budget int) ([]core.Result, error) {
	if s.st == nil {
		return nil, ErrNoHistory
	}
	if cur := s.epoch.Load(); epoch > cur {
		return nil, fmt.Errorf("%w: requested %d, current is %d", ErrFutureEpoch, epoch, cur)
	}
	s.nEpochChecks.Add(1)
	e, fresh := s.historyEntry(epoch)
	if fresh {
		// First requester materializes; holders of e.mu below wait for it.
		// coreOpts, not s.chk.Options(): this runs on handler goroutines,
		// and the worker may be swapping s.chk under a follower re-bootstrap.
		chk, err := s.st.CheckerAt(epoch, s.coreOpts)
		e.chk, e.err = chk, err
		e.mu <- struct{}{} // release: entry is ready
		if err != nil {
			s.dropHistoryEntry(epoch)
		}
	}
	select {
	case <-e.mu:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { e.mu <- struct{}{} }()
	if e.err != nil {
		return nil, e.err
	}
	// Untraced: the caller brackets the whole historical read in one span.
	// The zero pass keeps the read away from the verdict memo: this checker
	// was rebuilt from snapshot + WAL, and its table-version counters say
	// nothing about the live ones.
	return s.evalAll(ctx, e.chk, cts, memoPass{}, core.CheckOptions{NodeBudget: budget}, nil), nil
}

// historyEntry returns the cache entry for epoch, creating (and FIFO-evicting)
// under histMu. fresh is true when the caller must materialize the entry and
// then release its semaphore.
func (s *Server) historyEntry(epoch uint64) (e *historyEntry, fresh bool) {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	if e, ok := s.history[epoch]; ok {
		return e, false
	}
	for len(s.histOrder) >= maxHistoryEntries {
		delete(s.history, s.histOrder[0])
		s.histOrder = s.histOrder[1:]
	}
	e = &historyEntry{mu: make(chan struct{}, 1)}
	s.history[epoch] = e
	s.histOrder = append(s.histOrder, epoch)
	return e, true
}

// dropHistoryEntry removes a failed materialization so a later request can
// retry (the store may have the epoch after the next snapshot settles).
func (s *Server) dropHistoryEntry(epoch uint64) {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	if _, ok := s.history[epoch]; !ok {
		return
	}
	delete(s.history, epoch)
	for i, ep := range s.histOrder {
		if ep == epoch {
			s.histOrder = append(s.histOrder[:i], s.histOrder[i+1:]...)
			break
		}
	}
}
