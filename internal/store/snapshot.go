package store

// snapshot.go serializes a whole core.Checker image — catalog schemas with
// dictionary-encoded rows, every index's fdd block geometry, the index BDDs
// themselves (one nested bdd.Image of all roots, so structure shared between
// indices stays shared on disk), and the constraint set — and restores it
// into a fresh checker. A snapshot is self-contained: restoring needs only
// the bytes and the core.Options the serving checker runs with.
//
// Layout after an 8-byte magic:
//
//	uvarint format version (2)
//	uvarint epoch
//	uvarint kernel variable count
//	domains:  uvarint n, then per domain (sorted by name)
//	          str name, uvarint nvalues, values as str in code order
//	tables:   uvarint n, then per table (catalog creation order)
//	          str name, uvarint ncols, per column (str name, str domain),
//	          uvarint nrows, rows as ncols × uvarint codes
//	indices:  uvarint n, then per index (sorted by name)
//	          str name, str table, uvarint-counted cols and order lists,
//	          uvarint nblocks, per block (str name, uvarint size,
//	          uvarint-counted vars list), then uvarint nproj, per
//	          maintained projection a uvarint-counted list of the index
//	          column positions it keeps
//	bdd:      uvarint byte length, then a bdd.Image (Image.WriteTo) of
//	          all index roots in the indices-section order, then every
//	          index's projection roots in the same order
//	constraints: str (the rendered constraint text, "" when none)
//
// str = uvarint length + bytes. Domains serialize their dictionaries in
// code order, so re-interning on restore reproduces every code and the
// stored row codes stay valid.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/relation"
)

const (
	snapMagic = "\x00CVSNAP1"
	// snapFormatVersion is bumped on any incompatible layout change; a
	// reader refuses files of any other version. Version 2 added the
	// projection lists.
	snapFormatVersion = 2
	// maxSnapString caps any single string or value in a snapshot.
	maxSnapString = 1 << 26
	// maxSnapCount caps any declared element count.
	maxSnapCount = 1 << 31
	// maxSnapVars caps the kernel variable count a snapshot may demand.
	maxSnapVars = 1 << 24
)

// ErrCorrupt is reported (wrapped) for snapshot or manifest bytes that are
// not well-formed: bad magic, truncation, out-of-range codes, checksum
// mismatches. It deliberately also covers bdd.ErrCorrupt from the nested
// BDD section, so callers can match one sentinel.
var ErrCorrupt = errors.New("store: corrupt artifact")

// RenderConstraints renders a constraint set as text that ParseConstraints
// accepts — the form the snapshot persists.
func RenderConstraints(cs []logic.Constraint) string {
	var b strings.Builder
	for _, c := range cs {
		b.WriteString(c.String())
		b.WriteString(".\n")
	}
	return b.String()
}

// writeSnapshot serializes chk at the given epoch to w.
func writeSnapshot(w io.Writer, chk *core.Checker, constraints string, epoch uint64) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapMagic); err != nil {
		return err
	}
	var scratch []byte
	num := func(v uint64) error {
		scratch = binary.AppendUvarint(scratch[:0], v)
		_, err := bw.Write(scratch)
		return err
	}
	str := func(s string) error {
		if err := num(uint64(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	list := func(vs []int) error {
		if err := num(uint64(len(vs))); err != nil {
			return err
		}
		for _, v := range vs {
			if err := num(uint64(v)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := num(snapFormatVersion); err != nil {
		return err
	}
	if err := num(epoch); err != nil {
		return err
	}
	if err := num(uint64(chk.Kernel().NumVars())); err != nil {
		return err
	}

	cat := chk.Catalog()
	doms := cat.Domains()
	if err := num(uint64(len(doms))); err != nil {
		return err
	}
	for _, d := range doms {
		if err := str(d.Name()); err != nil {
			return err
		}
		vals := d.Values()
		if err := num(uint64(len(vals))); err != nil {
			return err
		}
		for _, v := range vals {
			if err := str(v); err != nil {
				return err
			}
		}
	}

	tables := cat.Tables()
	if err := num(uint64(len(tables))); err != nil {
		return err
	}
	for _, t := range tables {
		if err := str(t.Name()); err != nil {
			return err
		}
		if err := num(uint64(t.NumCols())); err != nil {
			return err
		}
		for i, name := range t.ColumnNames() {
			if err := str(name); err != nil {
				return err
			}
			if err := str(t.ColumnDomain(i).Name()); err != nil {
				return err
			}
		}
		rows := t.Rows()
		if err := num(uint64(len(rows))); err != nil {
			return err
		}
		for _, row := range rows {
			for _, code := range row {
				if err := num(uint64(uint32(code))); err != nil {
					return err
				}
			}
		}
	}

	img, snaps, err := chk.ExportIndices()
	if err != nil {
		return fmt.Errorf("store: exporting index BDDs: %w", err)
	}
	if err := num(uint64(len(snaps))); err != nil {
		return err
	}
	for _, s := range snaps {
		if err := str(s.Name); err != nil {
			return err
		}
		if err := str(s.Table); err != nil {
			return err
		}
		for _, l := range [][]int{s.Cols, s.Order} {
			if err := list(l); err != nil {
				return err
			}
		}
		if err := num(uint64(len(s.Blocks))); err != nil {
			return err
		}
		for _, b := range s.Blocks {
			if err := str(b.Name); err != nil {
				return err
			}
			if err := num(uint64(b.Size)); err != nil {
				return err
			}
			if err := list(b.Vars); err != nil {
				return err
			}
		}
		if err := num(uint64(len(s.Projections))); err != nil {
			return err
		}
		for _, keep := range s.Projections {
			if err := list(keep); err != nil {
				return err
			}
		}
	}

	// The BDD section is length-prefixed so the container parser never has
	// to trust bdd.ReadImage's internal buffering to stop at the right byte.
	var bddBuf bytes.Buffer
	if _, err := img.WriteTo(&bddBuf); err != nil {
		return err
	}
	if err := num(uint64(bddBuf.Len())); err != nil {
		return err
	}
	if _, err := bw.Write(bddBuf.Bytes()); err != nil {
		return err
	}
	if err := str(constraints); err != nil {
		return err
	}
	return bw.Flush()
}

// snapParser is a cursor over a snapshot stream with sticky errors and
// allocation guards.
type snapParser struct {
	br  *bufio.Reader
	err error
}

func (p *snapParser) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

func (p *snapParser) num() uint64 {
	if p.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(p.br)
	if err != nil {
		p.fail("truncated varint: %v", err)
		return 0
	}
	return v
}

// count reads an element count and rejects implausible declarations.
func (p *snapParser) count(what string) int {
	v := p.num()
	if p.err == nil && v > maxSnapCount {
		p.fail("implausible %s count %d", what, v)
	}
	return int(v)
}

// str reads a length-prefixed string. The buffer grows with the bytes that
// arrive, at most doubling, so a declared length costs memory only once the
// input backs it.
func (p *snapParser) str(what string) string {
	v := p.num()
	if p.err != nil {
		return ""
	}
	if v > maxSnapString {
		p.fail("implausible %s length %d", what, v)
		return ""
	}
	n := int(v)
	buf := make([]byte, 0, boundedCap(n))
	for len(buf) < n {
		old := len(buf)
		next := min(n, max(cap(buf), 2*old))
		buf = slices.Grow(buf, next-old)[:next]
		if _, err := io.ReadFull(p.br, buf[old:]); err != nil {
			p.fail("truncated %s: %v", what, err)
			return ""
		}
	}
	return string(buf)
}

// list reads a uvarint-counted list of non-negative ints.
func (p *snapParser) list(what string) []int {
	n := p.count(what)
	out := make([]int, 0, boundedCap(n))
	for j := 0; j < n && p.err == nil; j++ {
		v := p.num()
		if p.err == nil && v > maxSnapCount {
			p.fail("implausible %s value %d", what, v)
		}
		out = append(out, int(v))
	}
	return out
}

// boundedCap limits a pre-allocation driven by an untrusted count: slices
// start at most this big and grow as real bytes arrive.
func boundedCap(n int) int {
	if n > 1<<16 {
		return 1 << 16
	}
	return n
}

// readSnapshot restores a checker image from r. opts are the core options
// the restored checker runs with (its node budget); they are the caller's
// runtime configuration, not part of the image. Returns the
// checker, the persisted constraint text, and the snapshot's epoch.
func readSnapshot(r io.Reader, opts core.Options) (*core.Checker, string, uint64, error) {
	p := &snapParser{br: bufio.NewReader(r)}
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(p.br, magic); err != nil {
		return nil, "", 0, fmt.Errorf("%w: reading magic: %w", ErrCorrupt, err)
	}
	if string(magic) != snapMagic {
		return nil, "", 0, fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
	}
	format := p.num()
	if p.err == nil && format > snapFormatVersion {
		return nil, "", 0, fmt.Errorf("store: snapshot format version %d is newer than supported %d: %w", format, snapFormatVersion, ErrNewerFormat)
	}
	if p.err == nil && format < snapFormatVersion {
		p.fail("snapshot format version %d is no longer read", format)
	}
	epoch := p.num()
	numVars := p.num()
	if p.err == nil && numVars > maxSnapVars {
		p.fail("implausible variable count %d", numVars)
	}
	if p.err != nil {
		return nil, "", 0, p.err
	}

	cat := relation.NewCatalog()
	nDoms := p.count("domain")
	for i := 0; i < nDoms && p.err == nil; i++ {
		d := cat.Domain(p.str("domain name"))
		nVals := p.count("value")
		for j := 0; j < nVals && p.err == nil; j++ {
			d.Intern(p.str("domain value"))
		}
	}

	nTables := p.count("table")
	for i := 0; i < nTables && p.err == nil; i++ {
		name := p.str("table name")
		nCols := p.count("column")
		cols := make([]relation.Column, 0, boundedCap(nCols))
		for j := 0; j < nCols && p.err == nil; j++ {
			cols = append(cols, relation.Column{Name: p.str("column name"), Domain: p.str("column domain")})
		}
		if p.err != nil {
			break
		}
		t, err := cat.CreateTable(name, cols)
		if err != nil {
			return nil, "", 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		sizes := make([]uint64, nCols)
		for j := 0; j < nCols; j++ {
			sizes[j] = uint64(t.ColumnDomain(j).Size())
		}
		nRows := p.count("row")
		row := make([]int32, nCols)
		for j := 0; j < nRows && p.err == nil; j++ {
			for k := 0; k < nCols; k++ {
				code := p.num()
				if p.err == nil && code >= sizes[k] {
					p.fail("table %s row %d: code %d outside domain of %d values", name, j, code, sizes[k])
				}
				row[k] = int32(code)
			}
			if p.err == nil {
				t.InsertCodes(row)
			}
		}
	}
	if p.err != nil {
		return nil, "", 0, p.err
	}

	nIdx := p.count("index")
	snaps := make([]core.IndexSnapshot, 0, boundedCap(nIdx))
	for i := 0; i < nIdx && p.err == nil; i++ {
		s := core.IndexSnapshot{Name: p.str("index name"), Table: p.str("index table")}
		s.Cols = p.list("index column")
		s.Order = p.list("index column")
		nBlocks := p.count("block")
		for j := 0; j < nBlocks && p.err == nil; j++ {
			b := core.BlockSnapshot{Name: p.str("block name")}
			size := p.num()
			if p.err == nil && (size < 1 || size > maxSnapCount) {
				p.fail("implausible block size %d", size)
			}
			b.Size = int(size)
			nVars := p.count("block var")
			if p.err == nil && nVars != max(1, bits.Len64(size-1)) {
				p.fail("block %s: %d variables for %d values", b.Name, nVars, size)
			}
			b.Vars = make([]int, 0, boundedCap(nVars))
			for k := 0; k < nVars && p.err == nil; k++ {
				v := p.num()
				if p.err == nil && v >= numVars {
					p.fail("block %s var %d outside the kernel's %d variables", b.Name, v, numVars)
				}
				b.Vars = append(b.Vars, int(v))
			}
			s.Blocks = append(s.Blocks, b)
		}
		nProj := p.count("projection")
		for j := 0; j < nProj && p.err == nil; j++ {
			s.Projections = append(s.Projections, p.list("projection position"))
		}
		snaps = append(snaps, s)
	}
	if p.err != nil {
		return nil, "", 0, p.err
	}

	bddLen := p.num()
	if p.err != nil {
		return nil, "", 0, p.err
	}
	bddSection := io.LimitReader(p.br, int64(bddLen))
	img, err := bdd.ReadImage(bddSection)
	if err != nil {
		return nil, "", 0, fmt.Errorf("%w: reading index BDDs: %w", ErrCorrupt, err)
	}
	// ReadImage buffers internally and may leave section bytes unread; drain
	// to the declared section end so the container cursor stays aligned.
	if _, err := io.Copy(io.Discard, bddSection); err != nil {
		return nil, "", 0, fmt.Errorf("%w: draining BDD section: %v", ErrCorrupt, err)
	}
	// The image orders the kernel's every variable, so its order backs the
	// header's variable count with bytes before the kernel grows to it.
	if n := img.Vars(); uint64(n) != numVars {
		return nil, "", 0, fmt.Errorf("%w: the BDD section orders %d variables, the header declares %d", ErrCorrupt, n, numVars)
	}
	chk := core.New(cat, opts)
	k := chk.Kernel()
	if int(numVars) > k.NumVars() {
		k.AddVars(int(numVars) - k.NumVars())
	}
	if err := chk.AdoptIndices(img, snaps); err != nil {
		// Only a budget too small for the indices is not the bytes' fault.
		if !errors.Is(err, bdd.ErrBudget) {
			err = fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		return nil, "", 0, fmt.Errorf("store: restoring indices: %w", err)
	}
	constraints := p.str("constraint text")
	if p.err != nil {
		return nil, "", 0, p.err
	}
	return chk, constraints, epoch, nil
}
