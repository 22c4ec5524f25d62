package bdd

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// image.go is the one way a BDD leaves a kernel and the one way it enters
// another. BuDDy moves a BDD between kernels only as a node list
// (bdd_save/bdd_load); an Image is that list held in memory. Export writes
// it, Image.WriteTo and ReadImage carry it through bytes, and Import
// re-interns it node by node, so imported BDDs share structure with
// everything already in the destination and importing the same roots twice
// is a pure unique-table lookup.
//
// The byte format (BDD2) is the node list with varint-encoded fields: the
// variable count, a level→variable permutation, the nodes children first as
// (level, low id, high id), and the root ids. A kernel's variable is its
// level, so Export writes the identity permutation; a file whose permutation
// is not the identity was written by a kernel that still sifted its order,
// and Import rebuilds its out-of-order nodes as ITEs, as Replace does
// (Kernel.node). Version-1 files
// (no permutation, always identity order) still read.

// ErrCorrupt is reported (wrapped) by ReadImage for input that is not a
// well-formed BDD file: bad magic, truncation mid-structure, out-of-range
// node references, a node not above its children, or implausible counts.
// Durability layers match it with errors.Is to distinguish a damaged
// artifact (recoverable by falling back to an older snapshot) from an
// environmental failure such as a read error.
var ErrCorrupt = errors.New("bdd: corrupt or truncated BDD file")

const (
	ioMagic   = "\x00BDD2"
	ioMagicV1 = "\x00BDD1"
)

// Image is an immutable BDD node list that belongs to no kernel. Node i has
// id i+2 (ids 0 and 1 are False and True), names the variable it tests
// rather than a level, and comes after both its children. The image also
// holds the writer's variable order and its roots' ids. Nothing mutates an
// Image after Export or ReadImage returns it, so any number of kernels may
// import one concurrently.
type Image struct {
	order []uint32 // the writer's level→variable permutation; the identity unless a sifted file was read
	nodes []imageNode
	roots []uint32
}

type imageNode struct{ v, low, high uint32 }

// Export captures the subgraphs reachable from roots as an Image whose
// roots keep their order. The walk is post-order, low before high, so an
// Import calls makeNode in the order a walk of the roots themselves would.
// k is only read.
func (k *Kernel) Export(roots ...Ref) (*Image, error) {
	img := &Image{order: make([]uint32, k.numVars), roots: make([]uint32, len(roots))}
	for v := range img.order {
		img.order[v] = uint32(v)
	}
	// id[f] is f's image id, zero until f is visited: node ids start at 2. It
	// is dense — one slot per table slot — because a map was most of a walk's
	// time. Recursion depth is bounded by the variable count.
	id := make([]uint32, len(k.level))
	var visit func(Ref) uint32
	visit = func(f Ref) uint32 {
		if f <= True {
			return uint32(f)
		}
		if id[f] == 0 {
			low := visit(k.low[f])
			high := visit(k.high[f])
			img.nodes = append(img.nodes, imageNode{v: k.level[f], low: low, high: high})
			id[f] = uint32(len(img.nodes) + 1)
		}
		return id[f]
	}
	for i, r := range roots {
		if r == Invalid {
			return nil, fmt.Errorf("bdd: Export of Invalid ref")
		}
		img.roots[i] = visit(r)
	}
	return img, nil
}

// Vars returns the writer's variable count.
func (img *Image) Vars() int { return len(img.order) }

// Import re-interns img's nodes into k and returns the roots' Refs in image
// order. Nodes are interned, so importing into a kernel that already holds
// equal subfunctions shares them.
//
// Importing counts against k's node budget; on budget exhaustion the sticky
// error is returned and k is left with Err set, like any other aborted
// operation.
func (k *Kernel) Import(img *Image) ([]Ref, error) {
	for _, n := range img.nodes {
		if int(n.v) >= k.numVars {
			return nil, fmt.Errorf("bdd: Import needs variable %d, kernel has %d", n.v, k.numVars)
		}
	}
	// Bytes written by a kernel that had sifted its variable order, which
	// kernels no longer do, may have a node's children test variables above
	// its own; node rebuilds such a node as an ITE. No kernel operation
	// collects, so nothing made on the way needs pinning.
	refs := make([]Ref, 2, 2+len(img.nodes))
	refs[0], refs[1] = False, True
	for _, n := range img.nodes {
		f := k.node(n.v, refs[n.low], refs[n.high])
		if f == Invalid {
			return nil, k.Err()
		}
		refs = append(refs, f)
	}
	return img.rootRefs(refs), nil
}

// rootRefs maps the image's root ids through refs, the imported Ref of
// every id.
func (img *Image) rootRefs(refs []Ref) []Ref {
	out := make([]Ref, len(img.roots))
	for i, id := range img.roots {
		out[i] = refs[id]
	}
	return out
}

// WriteTo writes img in the BDD2 format.
func (img *Image) WriteTo(w io.Writer) (int64, error) {
	level := make([]uint64, len(img.order))
	for l, v := range img.order {
		level[v] = uint64(l)
	}
	buf := append([]byte(nil), ioMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(img.order)))
	for _, v := range img.order {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	buf = binary.AppendUvarint(buf, uint64(len(img.nodes)))
	for _, n := range img.nodes {
		buf = binary.AppendUvarint(buf, level[n.v])
		buf = binary.AppendUvarint(buf, uint64(n.low))
		buf = binary.AppendUvarint(buf, uint64(n.high))
	}
	buf = binary.AppendUvarint(buf, uint64(len(img.roots)))
	for _, id := range img.roots {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// ReadImage reads an image written by WriteTo (or a version-1 file). It
// never trusts its input: malformed bytes produce an error wrapping
// ErrCorrupt (never a panic), and declared counts never drive allocation
// ahead of the bytes that back them.
func ReadImage(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(ioMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %w", ErrCorrupt, err)
	}
	if m := string(magic); m != ioMagic && m != ioMagicV1 {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	vars, err := readCount(br, "variable")
	if err != nil {
		return nil, err
	}
	// Every count is grown into, never allocated up front: it is untrusted.
	img := &Image{order: make([]uint32, 0, min(vars, 1<<16))}
	if string(magic) == ioMagic {
		for l := uint64(0); l < vars; l++ {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("%w: variable order truncated at level %d: %w", ErrCorrupt, l, err)
			}
			if v >= vars {
				return nil, fmt.Errorf("%w: variable order is not a permutation", ErrCorrupt)
			}
			img.order = append(img.order, uint32(v))
		}
		seen := make([]bool, vars)
		for _, v := range img.order {
			if seen[v] {
				return nil, fmt.Errorf("%w: variable order is not a permutation", ErrCorrupt)
			}
			seen[v] = true
		}
	} else {
		// A version-1 file carries no order for its count to be backed by.
		if vars > 1<<20 {
			return nil, fmt.Errorf("%w: implausible variable count %d for a version-1 file", ErrCorrupt, vars)
		}
		for l := uint64(0); l < vars; l++ {
			img.order = append(img.order, uint32(l))
		}
	}
	count, err := readCount(br, "node")
	if err != nil {
		return nil, err
	}
	img.nodes = make([]imageNode, 0, min(count, 1<<16))
	// levels[id] is the level of the node with that id; terminals sit below
	// every variable.
	levels := make([]uint64, 2, 2+min(count, 1<<16))
	levels[0], levels[1] = vars, vars
	for i := uint64(0); i < count; i++ {
		var f [3]uint64 // level, low id, high id
		for j := range f {
			if f[j], err = binary.ReadUvarint(br); err != nil {
				return nil, fmt.Errorf("%w: node %d truncated: %w", ErrCorrupt, i, err)
			}
		}
		if f[0] >= vars || f[1] >= i+2 || f[2] >= i+2 {
			return nil, fmt.Errorf("%w: node %d out of range", ErrCorrupt, i)
		}
		if f[0] >= levels[f[1]] || f[0] >= levels[f[2]] {
			return nil, fmt.Errorf("%w: node %d is not above its children", ErrCorrupt, i)
		}
		img.nodes = append(img.nodes, imageNode{v: img.order[f[0]], low: uint32(f[1]), high: uint32(f[2])})
		levels = append(levels, f[0])
	}
	rootCount, err := readCount(br, "root")
	if err != nil {
		return nil, err
	}
	img.roots = make([]uint32, 0, min(rootCount, 1<<16))
	for i := uint64(0); i < rootCount; i++ {
		id, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: root %d truncated: %w", ErrCorrupt, i, err)
		}
		if id >= uint64(len(levels)) {
			return nil, fmt.Errorf("%w: root %d out of range", ErrCorrupt, i)
		}
		img.roots = append(img.roots, uint32(id))
	}
	return img, nil
}

// readCount reads one of the format's element counts, rejecting anything
// past 2^31 outright.
func readCount(br *bufio.Reader, what string) (uint64, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("%w: reading %s count: %w", ErrCorrupt, what, err)
	}
	if n > 1<<31 {
		return 0, fmt.Errorf("%w: implausible %s count %d", ErrCorrupt, what, n)
	}
	return n, nil
}
