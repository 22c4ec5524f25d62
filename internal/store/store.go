// Package store is the durability subsystem: a write-ahead log of every
// acknowledged update batch plus periodic whole-checker snapshots, managed
// inside one data directory by a manifest. Together they give the daemon
// warm restarts (snapshot + WAL replay instead of CSV rebuild and index
// reconstruction) and point-in-time checking (materialize the state as of a
// retained epoch).
//
// Concurrency contract: AppendBatch, WriteSnapshot and InstallSnapshot
// belong to the single write-owner goroutine (the service worker) and must
// not race each other; CheckerAt, OpenSnapshot, WALTail.Poll and Status may
// run from any goroutine. Readers hold the read lock only long enough to
// resolve the manifest, open file handles, and copy WAL bytes — the
// expensive materialization happens after release, relying on POSIX unlink
// semantics (an open descriptor outlives a concurrent prune) and on the
// copied bytes being immune to WAL truncation. A concurrent append during a
// read is harmless: appended records carry epochs newer than any epoch a
// reader may legally request, and a torn read of the in-flight record is
// dropped by the tail scan.
package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Options configures a Store.
type Options struct {
	// Fsync is the WAL flush policy (default FsyncBatch).
	Fsync FsyncPolicy
	// FsyncInterval is the minimum spacing between WAL syncs under
	// FsyncIntervalPolicy (default 100ms).
	FsyncInterval time.Duration
	// Retain is how many snapshots to keep (default 4, minimum 1). Older
	// snapshots — and the historical epochs only they can serve — are
	// deleted as new ones are written.
	Retain int
}

// Sentinel errors for store conditions callers branch on.
var (
	// ErrNoSnapshot is reported by Recover when the directory holds no
	// snapshot yet (a fresh store): the caller must cold-boot.
	ErrNoSnapshot = errors.New("store: no snapshot in data directory")
	// ErrEpochNotRetained is reported by CheckerAt for an epoch older than
	// the retention window or falling between retained snapshots whose
	// connecting WAL has been truncated.
	ErrEpochNotRetained = errors.New("store: epoch not retained")
)

// Store is an open data directory.
type Store struct {
	dir  string
	opts Options

	// mu orders manifest/file mutation (write lock: WriteSnapshot's prune
	// and WAL truncation) against readers (read lock: CheckerAt, Status).
	mu  sync.RWMutex
	man *Manifest
	wal *walFile

	metrics atomic.Pointer[Metrics]

	// walGen counts WAL resets (snapshot installs truncate the log back to
	// its magic). Tailing readers compare it to detect that their position
	// no longer refers to the same log contents. Bumped under the write
	// lock, read under the read lock (atomic only so Status-style readers
	// could peek without blocking).
	walGen atomic.Uint64

	// Counters for /statsz and /metricsz, updated lock-free.
	walSize           atomic.Int64
	walAppends        atomic.Uint64
	walBytesWritten   atomic.Uint64
	fsyncs            atomic.Uint64
	replayedRecords   atomic.Uint64
	replayedTuples    atomic.Uint64
	droppedTailBytes  atomic.Uint64
	tornTails         atomic.Uint64
	lastSnapshotEpoch atomic.Uint64
}

// Open opens (or initializes) the data directory at dir. A directory with
// an unreadable manifest, or one written by a newer format version, is an
// error — never silently shadowed (errors.Is ErrCorrupt / ErrNewerFormat).
// A directory that exists with content but no manifest is also refused: it
// is not ours to overwrite.
func Open(dir string, opts Options) (*Store, error) {
	if opts.Retain < 1 {
		opts.Retain = 4
	}
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = 100 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating data directory: %w", err)
	}
	man, err := readManifest(dir)
	if errors.Is(err, os.ErrNotExist) {
		entries, lerr := os.ReadDir(dir)
		if lerr != nil {
			return nil, fmt.Errorf("store: listing data directory: %w", lerr)
		}
		for _, e := range entries {
			return nil, fmt.Errorf("%w: %s has no manifest but contains %q — refusing to initialize over it",
				ErrCorrupt, dir, e.Name())
		}
		man = &Manifest{Version: FormatVersion, WAL: walName}
		if werr := man.write(dir); werr != nil {
			return nil, werr
		}
	} else if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts, man: man}
	s.wal, err = openWAL(filepath.Join(dir, man.WAL), opts.Fsync, opts.FsyncInterval)
	if err != nil {
		return nil, err
	}
	s.walSize.Store(s.wal.size)
	if latest := man.latest(); latest != nil {
		s.lastSnapshotEpoch.Store(latest.Epoch)
	}
	return s, nil
}

// Close releases the WAL file handle. The store must not be used after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.close()
}

// Dir returns the data directory path.
func (s *Store) Dir() string { return s.dir }

// HasSnapshot reports whether the directory holds at least one snapshot —
// whether Recover can warm-boot.
func (s *Store) HasSnapshot() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.man.latest() != nil
}

// RecoveryInfo summarizes what Recover did.
type RecoveryInfo struct {
	// SnapshotEpoch is the epoch of the restored snapshot.
	SnapshotEpoch uint64
	// LastEpoch is the state's epoch after WAL replay — the epoch the
	// service must resume counting from.
	LastEpoch uint64
	// ReplayedRecords and ReplayedTuples count the WAL records applied on
	// top of the snapshot and the updates they carried.
	ReplayedRecords int
	ReplayedTuples  int
	// SkippedRecords counts WAL records at or below the snapshot epoch
	// (a crash hit between snapshot install and WAL truncation).
	SkippedRecords int
	// DroppedTailBytes is the size of the torn tail cut from the WAL, if
	// any — the in-flight record a crash interrupted.
	DroppedTailBytes int64
}

// Recover restores the latest snapshot, replays every WAL record behind it,
// truncates any torn tail, and returns the recovered checker, the persisted
// constraint text, and what happened. coreOpts is the runtime configuration
// for the restored checker. ErrNoSnapshot means a fresh directory.
func (s *Store) Recover(coreOpts core.Options) (*core.Checker, string, RecoveryInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var info RecoveryInfo
	latest := s.man.latest()
	if latest == nil {
		return nil, "", info, ErrNoSnapshot
	}
	chk, constraints, epoch, err := restoreFile(s.dir, *latest, coreOpts)
	if err != nil {
		return nil, "", info, err
	}
	scan, err := scanWAL(filepath.Join(s.dir, s.man.WAL))
	if err != nil {
		return nil, "", info, err
	}
	if info, err = replay(chk, scan.Batches, epoch, math.MaxUint64); err != nil {
		return nil, "", info, err
	}
	if scan.DroppedBytes > 0 {
		info.DroppedTailBytes = scan.DroppedBytes
		s.tornTails.Add(1)
		s.droppedTailBytes.Add(uint64(scan.DroppedBytes))
		if err := s.wal.truncateTo(scan.ValidBytes); err != nil {
			return nil, "", info, err
		}
		s.walSize.Store(s.wal.size)
	}
	s.replayedRecords.Add(uint64(info.ReplayedRecords))
	s.replayedTuples.Add(uint64(info.ReplayedTuples))
	return chk, constraints, info, nil
}

// restoreFile restores the snapshot file e names in dir (see
// restoreSnapshotFile). A Store's callers hold mu (read or write).
func restoreFile(dir string, e SnapshotEntry, coreOpts core.Options) (*core.Checker, string, uint64, error) {
	f, err := os.Open(filepath.Join(dir, e.File))
	if err != nil {
		return nil, "", 0, fmt.Errorf("store: opening snapshot: %w", err)
	}
	defer f.Close()
	return restoreSnapshotFile(f, e, coreOpts)
}

// restoreSnapshotFile materializes a checker from an already-opened snapshot
// stream, verifying length, CRC, and epoch against the manifest entry: it is
// the one check of a snapshot against the manifest, for Recover, CheckerAt
// and Verify alike. It
// holds no store locks: the caller opened the handle under the lock, and on
// POSIX an open descriptor keeps reading correctly even if a concurrent
// prune unlinks the file — so the expensive BDD reconstruction runs without
// blocking snapshot writes.
func restoreSnapshotFile(f io.Reader, e SnapshotEntry, coreOpts core.Options) (*core.Checker, string, uint64, error) {
	cr := &crcReader{r: f}
	chk, constraints, epoch, err := readSnapshot(cr, coreOpts)
	if err != nil {
		return nil, "", 0, fmt.Errorf("store: snapshot %s: %w", e.File, err)
	}
	// readSnapshot buffers; drain so the checksum covers the whole file and
	// trailing garbage is caught by the length comparison.
	if _, err := io.Copy(io.Discard, cr); err != nil {
		return nil, "", 0, fmt.Errorf("store: reading snapshot %s: %w", e.File, err)
	}
	if cr.n != e.Bytes || cr.crc != e.CRC32 {
		return nil, "", 0, fmt.Errorf("%w: snapshot %s is %d bytes crc %08x, manifest says %d bytes crc %08x",
			ErrCorrupt, e.File, cr.n, cr.crc, e.Bytes, e.CRC32)
	}
	if epoch != e.Epoch {
		return nil, "", 0, fmt.Errorf("%w: snapshot %s carries epoch %d, manifest says %d",
			ErrCorrupt, e.File, epoch, e.Epoch)
	}
	return chk, constraints, epoch, nil
}

// AppendBatch logs one batch: the updates that epoch applies. Must be called
// by the write owner before the batch is applied and acknowledged
// (log-before-ack); an error means the record is not in the log, and the
// owner must neither apply nor acknowledge the batch.
func (s *Store) AppendBatch(epoch uint64, ups []core.Update) error {
	start := time.Now()
	n, synced, err := s.wal.append(epoch, ups)
	if err != nil {
		return err
	}
	s.walSize.Store(s.wal.size)
	s.walAppends.Add(1)
	s.walBytesWritten.Add(uint64(n))
	if synced {
		s.fsyncs.Add(1)
	}
	if m := s.metrics.Load(); m != nil {
		m.WALAppend.Observe(time.Since(start))
	}
	return nil
}

// SnapshotFileName names the snapshot file for an epoch, relative to the
// data directory.
func SnapshotFileName(epoch uint64) string {
	return fmt.Sprintf("snap-%016x.cvsnap", epoch)
}

// WriteSnapshot persists chk's current state as the snapshot for epoch,
// installs it in the manifest, prunes snapshots beyond the retention count,
// and truncates the WAL (everything logged is now covered by the snapshot).
// Write-owner only; chk must be quiescent for the duration.
func (s *Store) WriteSnapshot(chk *core.Checker, constraints string, epoch uint64) error {
	start := time.Now()
	name := SnapshotFileName(epoch)
	tmp, err := os.CreateTemp(s.dir, ".tmp-"+name+"-*")
	if err != nil {
		return fmt.Errorf("store: creating snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	cw := &crcWriter{w: tmp}
	if err := writeSnapshot(cw, chk, constraints, epoch); err != nil {
		tmp.Close()
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing snapshot: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.installSnapshotLocked(tmpName, SnapshotEntry{Epoch: epoch, File: name, Bytes: cw.n, CRC32: cw.crc}); err != nil {
		return err
	}
	if m := s.metrics.Load(); m != nil {
		m.SnapshotWrite.Observe(time.Since(start))
	}
	return nil
}

// installSnapshotLocked renames a fully written, synced temp file into place
// as entry, commits a manifest referencing it (pruning past the retention
// count), and resets the WAL — everything logged so far is covered by the
// snapshot. Caller holds the write lock.
func (s *Store) installSnapshotLocked(tmpName string, entry SnapshotEntry) error {
	if err := os.Rename(tmpName, filepath.Join(s.dir, entry.File)); err != nil {
		return fmt.Errorf("store: installing snapshot: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	man := &Manifest{Version: FormatVersion, WAL: s.man.WAL}
	man.Snapshots = append(append([]SnapshotEntry(nil), s.man.Snapshots...), entry)
	var pruned []SnapshotEntry
	if n := len(man.Snapshots); n > s.opts.Retain {
		pruned = append(pruned, man.Snapshots[:n-s.opts.Retain]...)
		man.Snapshots = append([]SnapshotEntry(nil), man.Snapshots[n-s.opts.Retain:]...)
	}
	if err := man.write(s.dir); err != nil {
		return err
	}
	s.man = man
	// Old snapshot files go only after the manifest that stops referencing
	// them is durable; a crash in between leaves unreferenced files, which
	// is safe (cvstore compact cleans them up).
	for _, e := range pruned {
		os.Remove(filepath.Join(s.dir, e.File))
	}
	if err := s.wal.reset(); err != nil {
		return err
	}
	s.walGen.Add(1)
	s.walSize.Store(s.wal.size)
	s.lastSnapshotEpoch.Store(entry.Epoch)
	return nil
}

// OpenSnapshot opens a retained snapshot for streaming: the raw file plus
// its manifest entry (exact length, CRC, epoch). epoch 0 means the newest.
// The handle stays readable even if a concurrent WriteSnapshot prunes the
// file (POSIX unlink semantics), so callers can stream it without holding
// any store lock. ErrNoSnapshot / ErrEpochNotRetained classify misses.
func (s *Store) OpenSnapshot(epoch uint64) (io.ReadCloser, SnapshotEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var entry *SnapshotEntry
	if epoch == 0 {
		entry = s.man.latest()
		if entry == nil {
			return nil, SnapshotEntry{}, ErrNoSnapshot
		}
	} else {
		for i := range s.man.Snapshots {
			if s.man.Snapshots[i].Epoch == epoch {
				entry = &s.man.Snapshots[i]
				break
			}
		}
		if entry == nil {
			if s.man.latest() == nil {
				return nil, SnapshotEntry{}, ErrNoSnapshot
			}
			return nil, SnapshotEntry{}, fmt.Errorf("%w: no snapshot sealed at epoch %d", ErrEpochNotRetained, epoch)
		}
	}
	f, err := os.Open(filepath.Join(s.dir, entry.File))
	if err != nil {
		return nil, SnapshotEntry{}, fmt.Errorf("store: opening snapshot: %w", err)
	}
	return f, *entry, nil
}

// InstallSnapshot streams a snapshot fetched from elsewhere (a leader) into
// the directory as the new latest snapshot, verifying its length and CRC
// against what the sender declared before committing anything. On success
// the WAL is reset: local state now restarts from the installed epoch. A
// verification failure reports ErrCorrupt (the caller should refetch); an
// epoch at or below the current latest snapshot is refused (stale transfer).
// Write-owner only, like WriteSnapshot.
func (s *Store) InstallSnapshot(src io.Reader, epoch uint64, wantBytes int64, wantCRC uint32) error {
	if epoch == 0 {
		return fmt.Errorf("store: cannot install a snapshot for epoch 0")
	}
	name := SnapshotFileName(epoch)
	tmp, err := os.CreateTemp(s.dir, ".tmp-"+name+"-*")
	if err != nil {
		return fmt.Errorf("store: creating snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	cw := &crcWriter{w: tmp}
	// Cap the copy just past the declared length so a stream that overruns
	// is caught by the comparison below instead of filling the disk.
	if _, err := io.Copy(cw, io.LimitReader(src, wantBytes+1)); err != nil {
		tmp.Close()
		return fmt.Errorf("store: receiving snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing snapshot: %w", err)
	}
	if cw.n != wantBytes || cw.crc != wantCRC {
		return fmt.Errorf("%w: fetched snapshot is %d bytes crc %08x, sender declared %d bytes crc %08x",
			ErrCorrupt, cw.n, cw.crc, wantBytes, wantCRC)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if latest := s.man.latest(); latest != nil && epoch <= latest.Epoch {
		return fmt.Errorf("store: refusing to install snapshot epoch %d at or below current latest %d", epoch, latest.Epoch)
	}
	return s.installSnapshotLocked(tmpName, SnapshotEntry{Epoch: epoch, File: name, Bytes: cw.n, CRC32: cw.crc})
}

// CheckerAt materializes the state as of epoch from the retained artifacts:
// the newest snapshot at or below epoch, plus WAL replay up to epoch when
// that snapshot is the latest one. Epochs older than the retention window,
// or falling between two retained snapshots (their connecting WAL is gone),
// report ErrEpochNotRetained. The caller is responsible for rejecting
// epochs beyond the current one — the store cannot distinguish a future
// epoch from a retained epoch whose batches changed no tuples.
func (s *Store) CheckerAt(epoch uint64, coreOpts core.Options) (*core.Checker, error) {
	// Under the read lock: only resolve the manifest entry, open the
	// snapshot file, and copy the WAL bytes. The expensive part — BDD
	// reconstruction and replay — runs after release, so a long
	// materialization cannot stall WriteSnapshot (and, transitively, the
	// write worker). The open descriptor keeps the snapshot readable even
	// if a concurrent snapshot write prunes the file, and the copied WAL
	// bytes are immune to the truncation that follows.
	s.mu.RLock()
	if len(s.man.Snapshots) == 0 {
		s.mu.RUnlock()
		return nil, ErrNoSnapshot
	}
	// Newest entry at or below the requested epoch.
	var entry *SnapshotEntry
	for i := range s.man.Snapshots {
		if s.man.Snapshots[i].Epoch <= epoch {
			entry = &s.man.Snapshots[i]
		}
	}
	if entry == nil {
		oldest := s.man.Snapshots[0].Epoch
		s.mu.RUnlock()
		return nil, fmt.Errorf("%w: epoch %d predates the oldest retained snapshot (epoch %d)",
			ErrEpochNotRetained, epoch, oldest)
	}
	isLatest := entry.Epoch == s.man.latest().Epoch
	if !isLatest && entry.Epoch != epoch {
		nearest := entry.Epoch
		s.mu.RUnlock()
		return nil, fmt.Errorf("%w: epoch %d falls between retained snapshots (nearest is %d)",
			ErrEpochNotRetained, epoch, nearest)
	}
	e := *entry
	f, err := os.Open(filepath.Join(s.dir, e.File))
	if err != nil {
		s.mu.RUnlock()
		return nil, fmt.Errorf("store: opening snapshot: %w", err)
	}
	var walData []byte
	walPath := filepath.Join(s.dir, s.man.WAL)
	if isLatest && epoch > e.Epoch {
		walData, err = os.ReadFile(walPath)
		if err != nil {
			s.mu.RUnlock()
			f.Close()
			return nil, fmt.Errorf("store: reading WAL: %w", err)
		}
	}
	s.mu.RUnlock()

	defer f.Close()
	chk, _, snapEpoch, err := restoreSnapshotFile(f, e, coreOpts)
	if err != nil {
		return nil, err
	}
	if walData != nil {
		scan, err := scanWALData(walData, walPath)
		if err != nil {
			return nil, err
		}
		if _, err := replay(chk, scan.Batches, snapEpoch, epoch); err != nil {
			return nil, err
		}
	}
	return chk, nil
}

// replay applies to chk, in log order, the WAL batches of the epochs after
// snapEpoch (the restored snapshot's, which covers every earlier one) up to
// upTo, and counts them as RecoveryInfo does. A batch the checker does not
// take whole is corrupt: the log holds only batches that applied.
func replay(chk *core.Checker, batches []Batch, snapEpoch, upTo uint64) (RecoveryInfo, error) {
	info := RecoveryInfo{SnapshotEpoch: snapEpoch, LastEpoch: snapEpoch}
	for _, b := range batches {
		if b.Epoch <= snapEpoch {
			info.SkippedRecords++
			continue
		}
		if b.Epoch > upTo {
			continue
		}
		if applied, err := chk.Apply(b.Updates); err != nil || applied != len(b.Updates) {
			return info, fmt.Errorf("%w: replaying WAL record for epoch %d: applied %d/%d: %v",
				ErrCorrupt, b.Epoch, applied, len(b.Updates), err)
		}
		info.ReplayedRecords++
		info.ReplayedTuples += len(b.Updates)
		info.LastEpoch = b.Epoch
	}
	return info, nil
}

// Status is a point-in-time summary for /statsz.
type Status struct {
	Dir               string `json:"dir"`
	WALBytes          int64  `json:"wal_bytes"`
	WALAppends        uint64 `json:"wal_appends"`
	WALBytesWritten   uint64 `json:"wal_bytes_written"`
	Fsyncs            uint64 `json:"fsyncs"`
	FsyncPolicy       string `json:"fsync_policy"`
	Snapshots         int    `json:"snapshots"`
	LastSnapshotEpoch uint64 `json:"last_snapshot_epoch"`
	OldestEpoch       uint64 `json:"oldest_snapshot_epoch"`
	ReplayedRecords   uint64 `json:"replayed_records"`
	ReplayedTuples    uint64 `json:"replayed_tuples"`
	TornTails         uint64 `json:"torn_tails"`
	DroppedTailBytes  uint64 `json:"dropped_tail_bytes"`
}

// Status reports the store's durability state.
func (s *Store) Status() Status {
	s.mu.RLock()
	snapshots := len(s.man.Snapshots)
	var oldest uint64
	if snapshots > 0 {
		oldest = s.man.Snapshots[0].Epoch
	}
	s.mu.RUnlock()
	return Status{
		Dir:               s.dir,
		WALBytes:          s.walSize.Load(),
		WALAppends:        s.walAppends.Load(),
		WALBytesWritten:   s.walBytesWritten.Load(),
		Fsyncs:            s.fsyncs.Load(),
		FsyncPolicy:       s.opts.Fsync.String(),
		Snapshots:         snapshots,
		LastSnapshotEpoch: s.lastSnapshotEpoch.Load(),
		OldestEpoch:       oldest,
		ReplayedRecords:   s.replayedRecords.Load(),
		ReplayedTuples:    s.replayedTuples.Load(),
		TornTails:         s.tornTails.Load(),
		DroppedTailBytes:  s.droppedTailBytes.Load(),
	}
}

// WALSize returns the log's current size in bytes — the service's snapshot
// trigger reads it after each append.
func (s *Store) WALSize() int64 { return s.walSize.Load() }

// crcWriter counts and checksums everything written through it.
type crcWriter struct {
	w   io.Writer
	n   int64
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	c.n += int64(n)
	return n, err
}

// crcReader counts and checksums everything read through it.
type crcReader struct {
	r   io.Reader
	n   int64
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	c.n += int64(n)
	return n, err
}
