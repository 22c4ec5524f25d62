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
// variable count, the level of each variable (its own: a variable is its
// level), the nodes children first as (level, low id, high id), and the root
// ids. ReadImage refuses any other variable order, and the BDD1 format, as
// corrupt.

// ErrCorrupt is reported (wrapped) by ReadImage for input that is not a
// well-formed BDD file: bad magic, truncation mid-structure, a variable
// order other than the identity, out-of-range node references, a node not
// above its children, or implausible counts.
// Durability layers match it with errors.Is to distinguish a damaged
// artifact (recoverable by falling back to an older snapshot) from an
// environmental failure such as a read error.
var ErrCorrupt = errors.New("bdd: corrupt or truncated BDD file")

const ioMagic = "\x00BDD2"

// Image is an immutable BDD node list that belongs to no kernel. Node i has
// id i+2 (ids 0 and 1 are False and True), names the variable it tests (its
// level in every kernel), and comes after both its children. The image also
// holds the writer's variable count and its roots' ids. Nothing mutates an
// Image after Export or ReadImage returns it, so any number of kernels may
// import one concurrently.
type Image struct {
	vars  int
	nodes []imageNode
	roots []uint32
}

type imageNode struct{ v, low, high uint32 }

// Export captures the subgraphs reachable from roots as an Image whose
// roots keep their order. The walk is post-order, low before high, so an
// Import calls makeNode in the order a walk of the roots themselves would.
// k is only read.
func (k *Kernel) Export(roots ...Ref) (*Image, error) {
	img := &Image{vars: k.numVars, roots: make([]uint32, len(roots))}
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
func (img *Image) Vars() int { return img.vars }

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
	// With no free slot to reuse, the tables would grow by doubling on the
	// way; they are sized once instead. The image's own size caps the
	// reservation, so a kernel that already holds most of it (an advance to
	// a newer export) reserves nothing.
	if k.free < 0 {
		k.reserve(2 + len(img.nodes))
	}
	// Every node is above its children (ReadImage refuses any other), so
	// each one interns as it stands. No kernel operation collects, so
	// nothing made on the way needs pinning.
	refs := make([]Ref, 2, 2+len(img.nodes))
	refs[0], refs[1] = False, True
	for _, n := range img.nodes {
		f := k.makeNode(n.v, refs[n.low], refs[n.high])
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
	buf := append([]byte(nil), ioMagic...)
	buf = binary.AppendUvarint(buf, uint64(img.vars))
	for v := 0; v < img.vars; v++ {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	buf = binary.AppendUvarint(buf, uint64(len(img.nodes)))
	for _, n := range img.nodes {
		buf = binary.AppendUvarint(buf, uint64(n.v))
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

// ReadImage reads an image written by WriteTo. It never trusts its input:
// malformed bytes produce an error wrapping ErrCorrupt (never a panic), and
// declared counts never drive allocation ahead of the bytes that back them.
func ReadImage(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(ioMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %w", ErrCorrupt, err)
	}
	if string(magic) != ioMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	vars, err := readCount(br, "variable")
	if err != nil {
		return nil, err
	}
	// The order field is one varint per level, each the level itself: it
	// backs the variable count with bytes before anything is sized by it.
	for l := uint64(0); l < vars; l++ {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: variable order truncated at level %d: %w", ErrCorrupt, l, err)
		}
		if v != l {
			return nil, fmt.Errorf("%w: level %d holds variable %d: the order is not the identity", ErrCorrupt, l, v)
		}
	}
	// Every count is grown into, never allocated up front: it is untrusted.
	img := &Image{vars: int(vars)}
	count, err := readCount(br, "node")
	if err != nil {
		return nil, err
	}
	// level is the level of the node with that id; terminals sit below
	// every variable.
	level := func(id uint64) uint64 {
		if id <= 1 {
			return vars
		}
		return uint64(img.nodes[id-2].v)
	}
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
		if f[0] >= level(f[1]) || f[0] >= level(f[2]) {
			return nil, fmt.Errorf("%w: node %d is not above its children", ErrCorrupt, i)
		}
		img.nodes = append(img.nodes, imageNode{v: uint32(f[0]), low: uint32(f[1]), high: uint32(f[2])})
	}
	rootCount, err := readCount(br, "root")
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < rootCount; i++ {
		id, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: root %d truncated: %w", ErrCorrupt, i, err)
		}
		if id >= uint64(len(img.nodes)+2) {
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
