package bdd

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrCorrupt is reported (wrapped) by Load for input that is not a
// well-formed BDD file: bad magic, truncation mid-structure, out-of-range
// node references, or implausible counts. Durability layers match it with
// errors.Is to distinguish a damaged artifact (recoverable by falling back
// to an older snapshot) from an environmental failure such as a read error.
var ErrCorrupt = errors.New("bdd: corrupt or truncated BDD file")

// io.go implements BDD serialization, so logical indices can be persisted
// and reloaded without re-encoding the base relations. The format is a
// topologically ordered node list (children before parents) with
// varint-encoded fields; on load, nodes are re-interned through makeNode,
// so a loaded BDD shares structure with everything already in the kernel.
//
// Version 2 of the format additionally carries the variable order (the
// level→variable permutation) so that indices saved after a dynamic
// reorder restore with the ordering that made them small. Version-1 files
// (written before reordering existed, always identity order) still load.

const (
	ioMagic   = "\x00BDD2"
	ioMagicV1 = "\x00BDD1"
)

// Save writes the subgraphs reachable from roots to w, including the
// current variable order. The roots' order is preserved for Load.
func (k *Kernel) Save(w io.Writer, roots ...Ref) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(ioMagic); err != nil {
		return err
	}
	var buf []byte
	writeUvarint := func(v uint64) error {
		buf = binary.AppendUvarint(buf[:0], v)
		_, err := bw.Write(buf)
		return err
	}
	if err := writeUvarint(uint64(k.numVars)); err != nil {
		return err
	}
	// The level→variable permutation, top level first.
	for _, v := range k.level2var {
		if err := writeUvarint(uint64(v)); err != nil {
			return err
		}
	}
	// Topological order via iterative post-order.
	idOf := map[Ref]uint64{False: 0, True: 1}
	var order []Ref
	var visit func(Ref) error
	visit = func(f Ref) error {
		if f == Invalid {
			return fmt.Errorf("bdd: Save of Invalid ref")
		}
		if _, done := idOf[f]; done {
			return nil
		}
		if err := visit(k.low[f]); err != nil {
			return err
		}
		if err := visit(k.high[f]); err != nil {
			return err
		}
		idOf[f] = uint64(len(order)) + 2
		order = append(order, f)
		return nil
	}
	for _, r := range roots {
		if err := visit(r); err != nil {
			return err
		}
	}
	if err := writeUvarint(uint64(len(order))); err != nil {
		return err
	}
	for _, f := range order {
		if err := writeUvarint(uint64(k.level[f])); err != nil {
			return err
		}
		if err := writeUvarint(idOf[k.low[f]]); err != nil {
			return err
		}
		if err := writeUvarint(idOf[k.high[f]]); err != nil {
			return err
		}
	}
	if err := writeUvarint(uint64(len(roots))); err != nil {
		return err
	}
	for _, r := range roots {
		if err := writeUvarint(idOf[r]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads BDDs previously written by Save into this kernel and returns
// their roots in saved order. The kernel must have at least as many
// variables as the saving kernel; nodes are interned, so loading into a
// kernel that already holds equal subfunctions shares them. Load counts
// against the node budget like any other operation.
//
// Variable order: a pristine kernel (no nodes beyond the terminals, still
// on the identity order) adopts the file's variable order, so a warm
// restart reproduces the ordering a reorder had found. A kernel that
// already holds nodes or has its own non-identity order only accepts files
// whose order is consistent with its own (same relative order of the
// file's variables); anything else is an error, because interning nodes
// under a different order would corrupt canonicity.
//
// Load never trusts its input: malformed bytes produce an error wrapping
// ErrCorrupt (never a panic), and declared counts never drive allocation
// ahead of the bytes that back them.
func (k *Kernel) Load(r io.Reader) ([]Ref, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(ioMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %w", ErrCorrupt, err)
	}
	var withOrder bool
	switch string(magic) {
	case ioMagic:
		withOrder = true
	case ioMagicV1:
		withOrder = false
	default:
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	vars, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: reading variable count: %w", ErrCorrupt, err)
	}
	if vars > 1<<31 {
		return nil, fmt.Errorf("%w: implausible variable count %d", ErrCorrupt, vars)
	}
	if int(vars) > k.numVars {
		return nil, fmt.Errorf("bdd: file needs %d variables, kernel has %d", vars, k.numVars)
	}
	// fileL2V is the saving kernel's level→variable permutation over its
	// first `vars` levels; version-1 files are always identity.
	fileL2V := make([]uint32, vars)
	if withOrder {
		seen := make([]bool, vars)
		for l := uint64(0); l < vars; l++ {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("%w: variable order truncated at level %d: %w", ErrCorrupt, l, err)
			}
			if v >= vars || seen[v] {
				return nil, fmt.Errorf("%w: variable order is not a permutation", ErrCorrupt)
			}
			seen[v] = true
			fileL2V[l] = uint32(v)
		}
	} else {
		for l := range fileL2V {
			fileL2V[l] = uint32(l)
		}
	}
	if k.live == 2 && k.orderIsIdentity() {
		// Pristine kernel: adopt the file's order for the file's variables;
		// any extra kernel variables keep their identity levels below them.
		for l, v := range fileL2V {
			k.level2var[l] = v
			k.var2level[v] = uint32(l)
		}
		for i := range k.replaceMaps {
			k.rebuildReplaceMap(&k.replaceMaps[i])
		}
		k.ClearCaches()
	}
	// levelMap sends a file level to the kernel level of the same variable.
	// Interning is only sound if it is strictly increasing — the file's
	// relative variable order must agree with the kernel's.
	levelMap := make([]uint32, vars)
	for l := uint64(0); l < vars; l++ {
		levelMap[l] = k.var2level[fileL2V[l]]
		if l > 0 && levelMap[l] <= levelMap[l-1] {
			return nil, fmt.Errorf("bdd: file variable order is incompatible with the kernel's")
		}
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: reading node count: %w", ErrCorrupt, err)
	}
	if count > 1<<31 {
		return nil, fmt.Errorf("%w: implausible node count %d", ErrCorrupt, count)
	}
	// Grow incrementally: the count is untrusted input and must not drive
	// a huge up-front allocation.
	initial := count
	if initial > 1<<16 {
		initial = 1 << 16
	}
	refs := make([]Ref, 2, 2+initial)
	refs[0], refs[1] = False, True
	mark := k.TempMark()
	defer k.TempRelease(mark)
	for i := uint64(0); i < count; i++ {
		level, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: node %d truncated: %w", ErrCorrupt, i, err)
		}
		lowID, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: node %d truncated: %w", ErrCorrupt, i, err)
		}
		highID, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: node %d truncated: %w", ErrCorrupt, i, err)
		}
		if level >= vars || lowID >= i+2 || highID >= i+2 {
			return nil, fmt.Errorf("%w: node %d out of range", ErrCorrupt, i)
		}
		f := k.makeNode(levelMap[level], refs[lowID], refs[highID])
		if f == Invalid {
			return nil, k.Err()
		}
		refs = append(refs, k.TempKeep(f))
	}
	rootCount, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: reading root count: %w", ErrCorrupt, err)
	}
	if rootCount > 1<<31 {
		return nil, fmt.Errorf("%w: implausible root count %d", ErrCorrupt, rootCount)
	}
	rootInit := rootCount
	if rootInit > 1<<16 {
		rootInit = 1 << 16
	}
	roots := make([]Ref, 0, rootInit)
	for i := uint64(0); i < rootCount; i++ {
		id, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: root %d truncated: %w", ErrCorrupt, i, err)
		}
		if id >= uint64(len(refs)) {
			return nil, fmt.Errorf("%w: root %d out of range", ErrCorrupt, i)
		}
		roots = append(roots, refs[id])
	}
	return roots, nil
}

// orderIsIdentity reports whether variable i sits at level i for all i.
func (k *Kernel) orderIsIdentity() bool {
	for i, v := range k.level2var {
		if int(v) != i {
			return false
		}
	}
	return true
}
