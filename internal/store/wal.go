package store

// wal.go is the write-ahead log: an append-only file of length-prefixed,
// CRC-checksummed records, one per acknowledged update batch, each tagged
// with the epoch the batch produced. The log makes the window between two
// snapshots durable — recovery restores the latest snapshot and replays the
// records behind it. A record is only trusted if its declared length fits
// the file and its checksum matches; anything after the first bad record is
// a torn tail (the crash interrupted an append) and is dropped.
//
// Record layout, after an 8-byte file magic:
//
//	u32le payload length | u32le CRC-32 (IEEE) of payload | payload
//
// Payload: uvarint epoch, uvarint update count, then per update one op byte
// ('i' insert / 'd' delete), the table name and the value strings, each as
// uvarint length + bytes.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"time"

	"repro/internal/core"
)

const (
	walMagic = "\x00CVWAL1\n"
	// walRecordHeader is the fixed per-record prefix: length + CRC.
	walRecordHeader = 8
	// maxWALRecord caps a record's declared payload length; a longer
	// declaration is corruption, not a batch (guards unbounded allocation).
	maxWALRecord = 1 << 28
)

// FsyncPolicy says when the WAL is flushed to stable storage.
type FsyncPolicy int

// Fsync policies.
const (
	// FsyncBatch syncs after every appended record: an acknowledged batch
	// survives power loss. The default.
	FsyncBatch FsyncPolicy = iota
	// FsyncIntervalPolicy syncs at most once per configured interval,
	// piggybacked on appends: bounded data loss, much cheaper under load.
	FsyncIntervalPolicy
	// FsyncOff never syncs explicitly; the OS decides. Crash durability is
	// then only as good as the page cache (process kills are still safe —
	// written bytes survive a SIGKILL, only power loss can lose them).
	FsyncOff
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncBatch:
		return "batch"
	case FsyncIntervalPolicy:
		return "interval"
	case FsyncOff:
		return "off"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsyncPolicy maps the CLI spelling ("batch", "interval", "off") to the
// policy constant.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "batch":
		return FsyncBatch, nil
	case "interval":
		return FsyncIntervalPolicy, nil
	case "off":
		return FsyncOff, nil
	default:
		return 0, fmt.Errorf("store: unknown fsync policy %q (want batch|interval|off)", s)
	}
}

// Batch is one WAL record: the updates of one acknowledged batch and the
// epoch their application produced.
type Batch struct {
	Epoch   uint64
	Updates []core.Update
}

// walFile is the open write end of the log. It is single-writer: only the
// service's worker goroutine appends (readers open the path separately).
type walFile struct {
	f        *os.File
	size     int64
	policy   FsyncPolicy
	interval time.Duration
	lastSync time.Time
}

// openWAL opens (creating if needed) the log at path; appends go at the end
// of the file. It does not validate record contents — recovery scans and
// truncates the torn tail before the first append.
func openWAL(path string, policy FsyncPolicy, interval time.Duration) (*walFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening WAL: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: statting WAL: %w", err)
	}
	w := &walFile{f: f, size: st.Size(), policy: policy, interval: interval}
	if w.size == 0 {
		if _, err := f.Write([]byte(walMagic)); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: writing WAL magic: %w", err)
		}
		w.size = int64(len(walMagic))
	} else {
		magic := make([]byte, len(walMagic))
		if _, err := f.ReadAt(magic, 0); err != nil || string(magic) != walMagic {
			f.Close()
			return nil, fmt.Errorf("store: %s is not a WAL file", path)
		}
	}
	return w, nil
}

// encodeBatch renders one record payload.
func encodeBatch(buf []byte, epoch uint64, ups []core.Update) ([]byte, error) {
	buf = binary.AppendUvarint(buf, epoch)
	buf = binary.AppendUvarint(buf, uint64(len(ups)))
	for _, u := range ups {
		switch u.Op {
		case core.UpdateInsert:
			buf = append(buf, 'i')
		case core.UpdateDelete:
			buf = append(buf, 'd')
		default:
			return nil, fmt.Errorf("store: WAL cannot encode update op %q", u.Op)
		}
		buf = appendString(buf, u.Table)
		buf = binary.AppendUvarint(buf, uint64(len(u.Values)))
		for _, v := range u.Values {
			buf = appendString(buf, v)
		}
	}
	return buf, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// append writes one record at the end of the last good one and applies the
// fsync policy. It returns the bytes appended and whether a sync ran. The
// log's size moves past the record only once the write, and the sync when
// one runs, succeeded; on an error the log is cut back to its last good
// record, so the next append overwrites whatever part of this one landed.
func (w *walFile) append(epoch uint64, ups []core.Update) (n int64, synced bool, err error) {
	payload, err := encodeBatch(make([]byte, 0, 256), epoch, ups)
	if err != nil {
		return 0, false, err
	}
	if len(payload) > maxWALRecord {
		return 0, false, fmt.Errorf("store: WAL record of %d bytes exceeds the %d-byte cap", len(payload), maxWALRecord)
	}
	rec := make([]byte, walRecordHeader+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	copy(rec[walRecordHeader:], payload)
	if _, err := w.f.WriteAt(rec, w.size); err != nil {
		// Best effort: the next record overwrites what landed anyway; the
		// cut only keeps a live tailer from reading it meanwhile.
		_ = w.f.Truncate(w.size)
		return 0, false, fmt.Errorf("store: appending WAL record: %w", err)
	}
	switch w.policy {
	case FsyncBatch:
		synced = true
	case FsyncIntervalPolicy:
		synced = time.Since(w.lastSync) >= w.interval
	}
	if synced {
		if err := w.f.Sync(); err != nil {
			_ = w.f.Truncate(w.size) // best effort, as above
			return 0, false, fmt.Errorf("store: syncing WAL: %w", err)
		}
		w.lastSync = time.Now()
	}
	w.size += int64(len(rec))
	return int64(len(rec)), synced, nil
}

// reset truncates the log back to its magic header — called after a
// successful snapshot has made the logged window redundant.
func (w *walFile) reset() error {
	if err := w.f.Truncate(int64(len(walMagic))); err != nil {
		return fmt.Errorf("store: truncating WAL: %w", err)
	}
	w.size = int64(len(walMagic))
	if w.policy != FsyncOff {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("store: syncing WAL truncation: %w", err)
		}
		w.lastSync = time.Now()
	}
	return nil
}

// truncateTo cuts the log to validBytes (recovery drops a torn tail this
// way) and moves the append offset there.
func (w *walFile) truncateTo(validBytes int64) error {
	if err := w.f.Truncate(validBytes); err != nil {
		return fmt.Errorf("store: truncating WAL tail: %w", err)
	}
	w.size = validBytes
	return nil
}

func (w *walFile) close() error { return w.f.Close() }

// WALScan is the result of reading a log: the decoded batches in append
// order plus tail accounting.
type WALScan struct {
	// Batches are the valid records, in append order.
	Batches []Batch
	// Records and Tuples count the valid records and the updates they carry.
	Records int
	Tuples  int
	// ValidBytes is the file offset just past the last valid record; the
	// append path resumes there after recovery.
	ValidBytes int64
	// DroppedBytes is how much of the file follows ValidBytes: a torn or
	// corrupt tail (zero for a cleanly closed log).
	DroppedBytes int64
}

// walTailStatus classifies what ended a record scan.
type walTailStatus int

const (
	// walTailClean: the scan consumed its input exactly.
	walTailClean walTailStatus = iota
	// walTailShort: an incomplete record at the end — either an append still
	// in flight (live tailing) or a torn tail (crash recovery).
	walTailShort
	// walTailCorrupt: a record that is complete but fails its checksum,
	// declares an implausible length, or does not decode. Never produced by
	// an in-flight append (the writer emits each record in one write), so a
	// live reader may treat it as real corruption.
	walTailCorrupt
)

// decodeRecords decodes consecutive records from data (which starts at a
// record boundary, past the file magic). It returns the decoded batches, how
// many bytes of data they span, and how the scan ended. Bytes past consumed
// are the torn/corrupt tail (walTailShort/walTailCorrupt) or empty
// (walTailClean).
func decodeRecords(data []byte) (batches []Batch, consumed int, status walTailStatus) {
	off := 0
	for {
		if off == len(data) {
			return batches, off, walTailClean
		}
		if len(data)-off < walRecordHeader {
			return batches, off, walTailShort
		}
		plen := int(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if plen > maxWALRecord {
			return batches, off, walTailCorrupt
		}
		if len(data)-off-walRecordHeader < plen {
			return batches, off, walTailShort
		}
		payload := data[off+walRecordHeader : off+walRecordHeader+plen]
		if crc32.ChecksumIEEE(payload) != crc {
			return batches, off, walTailCorrupt
		}
		b, err := decodeBatch(payload)
		if err != nil {
			return batches, off, walTailCorrupt
		}
		batches = append(batches, b)
		off += walRecordHeader + plen
	}
}

// scanWAL decodes every valid record of a log. Corruption mid-file stops the
// scan — everything from the first bad record on is reported as dropped tail
// bytes, never an error; an error means the file itself could not be read or
// is not a WAL at all.
func scanWAL(path string) (*WALScan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: reading WAL: %w", err)
	}
	return scanWALData(data, path)
}

// scanWALData is scanWAL over bytes already read (CheckerAt snapshots the log
// under the store lock and replays it after release). path is only for error
// messages.
func scanWALData(data []byte, path string) (*WALScan, error) {
	if len(data) == 0 {
		// A zero-length file is a log that was created but never got its
		// magic written (crash inside openWAL): treat as empty.
		return &WALScan{}, nil
	}
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		return nil, fmt.Errorf("store: %s is not a WAL file", path)
	}
	batches, consumed, _ := decodeRecords(data[len(walMagic):])
	scan := &WALScan{Batches: batches, ValidBytes: int64(len(walMagic) + consumed)}
	for _, b := range batches {
		scan.Records++
		scan.Tuples += len(b.Updates)
	}
	scan.DroppedBytes = int64(len(data)) - scan.ValidBytes
	return scan, nil
}

// decodeBatch parses one record payload (already checksum-verified).
func decodeBatch(payload []byte) (Batch, error) {
	r := &byteParser{data: payload}
	epoch := r.uvarint()
	count := r.uvarint()
	if r.err != nil {
		return Batch{}, r.err
	}
	if count > uint64(len(payload)) { // every update costs ≥ 1 byte
		return Batch{}, fmt.Errorf("store: WAL record declares %d updates in %d bytes", count, len(payload))
	}
	b := Batch{Epoch: epoch, Updates: make([]core.Update, 0, count)}
	for i := uint64(0); i < count; i++ {
		op := r.byte()
		table := r.string()
		nvals := r.uvarint()
		if r.err != nil {
			return Batch{}, r.err
		}
		if nvals > uint64(len(payload)) {
			return Batch{}, fmt.Errorf("store: WAL update declares %d values in %d bytes", nvals, len(payload))
		}
		u := core.Update{Table: table, Values: make([]string, 0, nvals)}
		switch op {
		case 'i':
			u.Op = core.UpdateInsert
		case 'd':
			u.Op = core.UpdateDelete
		default:
			return Batch{}, fmt.Errorf("store: WAL update has unknown op byte %#x", op)
		}
		for j := uint64(0); j < nvals; j++ {
			u.Values = append(u.Values, r.string())
		}
		if r.err != nil {
			return Batch{}, r.err
		}
		b.Updates = append(b.Updates, u)
	}
	if r.off != len(r.data) {
		return Batch{}, fmt.Errorf("store: WAL record has %d trailing bytes", len(r.data)-r.off)
	}
	return b, nil
}

// byteParser is a cursor over a record payload with sticky error handling.
type byteParser struct {
	data []byte
	off  int
	err  error
}

func (p *byteParser) uvarint() uint64 {
	if p.err != nil {
		return 0
	}
	v, n := binary.Uvarint(p.data[p.off:])
	if n <= 0 {
		p.err = fmt.Errorf("store: truncated varint at offset %d", p.off)
		return 0
	}
	// A longer encoding than AppendUvarint's ends in a zero byte; refusing
	// it keeps every decodable record the encoding of what it decodes to.
	if n > 1 && p.data[p.off+n-1] == 0 {
		p.err = fmt.Errorf("store: non-minimal varint at offset %d", p.off)
		return 0
	}
	p.off += n
	return v
}

func (p *byteParser) byte() byte {
	if p.err != nil {
		return 0
	}
	if p.off >= len(p.data) {
		p.err = fmt.Errorf("store: truncated byte at offset %d", p.off)
		return 0
	}
	b := p.data[p.off]
	p.off++
	return b
}

func (p *byteParser) string() string {
	n := p.uvarint()
	if p.err != nil {
		return ""
	}
	if n > uint64(len(p.data)-p.off) {
		p.err = fmt.Errorf("store: string of %d bytes overruns record at offset %d", n, p.off)
		return ""
	}
	s := string(p.data[p.off : p.off+int(n)])
	p.off += int(n)
	return s
}
