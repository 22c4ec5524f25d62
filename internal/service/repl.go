package service

// repl.go is the leader side of replication: two endpoints that make the
// store's durability artifacts network-servable.
//
//	GET /snapshot/{epoch}   streams a retained snapshot file verbatim, with
//	                        its manifest epoch, exact length and CRC in
//	                        headers so the receiver can verify the transfer
//	                        before committing it ("latest" or 0 = newest).
//	GET /wal?from=N         long-polls the tail of acknowledged update
//	                        batches: every WAL record with epoch > from, up
//	                        to the currently published epoch. Answers 410
//	                        when epochs past `from` have been truncated into
//	                        a snapshot (the follower must re-bootstrap) and
//	                        waits up to wait_ms for news when nothing is
//	                        pending.
//
// Why this is enough for a correct follower: the paper's premise is that
// violation indices are cheap to maintain incrementally, so a replica never
// needs the base tables — a snapshot (compiled state at an epoch) plus the
// ordered update batches behind it reproduce the leader's checker exactly.
// Records are only served up to the *published* epoch: the worker appends a
// round's WAL records before storing the new epoch, so a concurrent reader
// could otherwise see half of an in-progress round and skip the rest.

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// Replication headers. The snapshot response carries the manifest entry's
// metadata so the receiver can verify the stream before installing it; 421
// update refusals name the leader.
const (
	// HeaderSnapshotEpoch is the epoch the streamed snapshot captures.
	HeaderSnapshotEpoch = "X-Cv-Snapshot-Epoch"
	// HeaderSnapshotCRC is the IEEE CRC-32 of the whole file, 8 hex digits.
	HeaderSnapshotCRC = "X-Cv-Snapshot-Crc32"
	// HeaderLeader carries the leader's URL on follower write refusals.
	HeaderLeader = "X-Cv-Leader"
)

// maxWALWait caps /wal's wait_ms: it must stay safely under the server's
// write timeout or long-polls would be cut mid-response.
const maxWALWait = 30 * time.Second

// walWaitCap is the effective long-poll ceiling: never above maxWALWait,
// and never above half the enclosing http.Server's write timeout — the
// remaining half is headroom to serialize and flush the response. A
// cvserved started with a write timeout below 2×maxWALWait would otherwise
// cut parked long-polls mid-chunk, which a tailing follower surfaces as a
// spurious corrupt-record error.
func (s *Server) walWaitCap() time.Duration {
	limit := time.Duration(maxWALWait)
	if wt := s.opts.WriteTimeout; wt > 0 && wt/2 < limit {
		limit = wt / 2
	}
	return limit
}

// WALBatch is one acknowledged WAL record on the wire: the updates applied
// under one epoch. Several records may share an epoch (one per job of a
// coalesced round); a follower applies all records of an epoch as one unit.
type WALBatch struct {
	Epoch   uint64        `json:"epoch"`
	Updates []UpdateTuple `json:"updates"`
}

// WALTailResponse is the /wal reply.
type WALTailResponse struct {
	// From echoes the request: batches strictly after this epoch.
	From uint64 `json:"from"`
	// Epoch is the leader's current epoch — the follower's lag gauge.
	Epoch uint64 `json:"epoch"`
	// Batches are the acknowledged records with From < epoch <= Epoch, in
	// append order. Empty when the long-poll timed out with no news.
	Batches []WALBatch `json:"batches,omitempty"`
}

// epochSignal broadcasts epoch advances: wait returns a channel that closes
// at the next bump. The long-poll handlers park on it instead of polling.
type epochSignal struct {
	mu sync.Mutex
	ch chan struct{}
}

func newEpochSignal() *epochSignal {
	return &epochSignal{ch: make(chan struct{})}
}

func (e *epochSignal) wait() <-chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ch
}

func (e *epochSignal) bump() {
	e.mu.Lock()
	close(e.ch)
	e.ch = make(chan struct{})
	e.mu.Unlock()
}

// handleSnapshotFetch streams one retained snapshot. The file handle is
// opened under the store's read lock and streamed after release, so a
// concurrent snapshot write that prunes the file cannot corrupt the
// download (POSIX keeps the unlinked file readable through the handle).
//
//cv:owner any
func (s *Server) handleSnapshotFetch(h *edge, w http.ResponseWriter, r *http.Request) {
	s.nSnapshotServes.Add(1)
	start := time.Now()
	defer h.finishRequest("snapshot", start, nil)
	raw := r.PathValue("epoch")
	var epoch uint64 // 0 = latest
	if raw != "latest" {
		n, err := parseUintParam("snapshot epoch", raw)
		if err != nil {
			h.httpError(w, err)
			return
		}
		epoch = n
	}
	rc, entry, err := s.st.OpenSnapshot(epoch)
	if err != nil {
		h.httpError(w, err)
		return
	}
	defer rc.Close()
	h.observeResponse(http.StatusOK)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(entry.Bytes, 10))
	w.Header().Set(HeaderSnapshotEpoch, strconv.FormatUint(entry.Epoch, 10))
	w.Header().Set(HeaderSnapshotCRC, fmt.Sprintf("%08x", entry.CRC32))
	io.Copy(w, rc)
}

// handleWALTail serves the acknowledged batch tail. Within one request the
// handler keeps an incremental tail reader, so each long-poll wakeup reads
// only the bytes appended since the last look, and a pending buffer holds
// records of a round whose epoch is not yet published — they are released
// together once the worker stores the epoch (records are appended before
// the epoch advances, so a record past the published epoch may have
// siblings still in flight).
//
//cv:owner any
func (s *Server) handleWALTail(h *edge, w http.ResponseWriter, r *http.Request) {
	s.nWALServes.Add(1)
	start := time.Now()
	defer h.finishRequest("wal", start, nil)
	q := r.URL.Query()
	if q.Get("from") == "" {
		h.httpError(w, errBadRequest("wal tailing requires ?from=<last applied epoch>"))
		return
	}
	from, err := parseUintParam("from", q.Get("from"))
	if err != nil {
		h.httpError(w, err)
		return
	}
	if from == 0 {
		h.httpError(w, errBadRequest("wal tailing requires ?from=<last applied epoch>"))
		return
	}
	var wait time.Duration
	if rawWait := q.Get("wait_ms"); rawWait != "" {
		ms, err := parseUintParam("wait_ms", rawWait)
		if err != nil {
			h.httpError(w, err)
			return
		}
		wait = time.Duration(ms) * time.Millisecond
		if limit := s.walWaitCap(); wait > limit || wait < 0 {
			// wait < 0 catches Duration overflow from a huge wait_ms.
			wait = limit
		}
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()

	tail := s.st.TailWAL()
	var pending []store.Batch
	for {
		cur := s.epoch.Load()
		if from > cur {
			h.httpError(w, errBadRequest(fmt.Sprintf("from epoch %d is ahead of the leader's %d", from, cur)))
			return
		}
		if from < s.st.LastSnapshotEpoch() {
			// Epochs in (from, snapshot] were truncated out of the log; only
			// the snapshot covers them now. 410 tells the follower to
			// re-bootstrap (the same status pruned ?epoch reads get).
			h.httpError(w, fmt.Errorf("%w: epochs after %d are only available via /snapshot (oldest logged is past %d)",
				store.ErrEpochNotRetained, from, s.st.LastSnapshotEpoch()))
			return
		}
		sig := s.epochSig.wait() // arm before reading: no lost wakeups
		bs, _, err := tail.Poll()
		if err != nil {
			h.httpError(w, err)
			return
		}
		pending = append(pending, bs...)
		// Release every pending record whose epoch is published. Records of
		// a half-appended round (epoch > cur) stay pending.
		var send []WALBatch
		rest := pending[:0]
		for _, b := range pending {
			switch {
			case b.Epoch <= from:
				// Already applied by the follower (records at or below the
				// snapshot epoch can linger in the log after a crash).
			case b.Epoch <= cur:
				send = append(send, WALBatch{Epoch: b.Epoch, Updates: toWireUpdates(b.Updates)})
			default:
				rest = append(rest, b)
			}
		}
		pending = rest
		if len(send) > 0 || wait <= 0 {
			h.writeJSON(w, http.StatusOK, WALTailResponse{From: from, Epoch: cur, Batches: send})
			return
		}
		select {
		case <-sig:
		case <-deadline.C:
			h.writeJSON(w, http.StatusOK, WALTailResponse{From: from, Epoch: cur})
			return
		case <-r.Context().Done():
			return
		case <-s.quit:
			h.writeJSON(w, http.StatusOK, WALTailResponse{From: from, Epoch: cur})
			return
		}
	}
}

// toWireUpdates converts applied updates to their JSON form.
func toWireUpdates(ups []core.Update) []UpdateTuple {
	out := make([]UpdateTuple, len(ups))
	for i, u := range ups {
		out[i] = UpdateTuple{Table: u.Table, Op: string(u.Op), Values: u.Values}
	}
	return out
}

// fromWireUpdates converts wire updates back to core updates.
func fromWireUpdates(ws []UpdateTuple) []core.Update {
	out := make([]core.Update, len(ws))
	for i, u := range ws {
		out[i] = core.Update{Table: u.Table, Op: core.UpdateOp(u.Op), Values: u.Values}
	}
	return out
}
