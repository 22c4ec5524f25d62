// Package shard partitions a catalog by the hash of a designated key column
// into N per-shard kernels, decomposes constraints into per-shard
// conjuncts plus a cross-shard residual, and coordinates scatter-gather
// evaluation across shard workers.
//
// The partition key is one column of one table ("TABLE.COL"). Every table
// with exactly one column over the same value domain is co-partitioned on
// that column; tables with no such column (or an ambiguous choice of two)
// are broadcast: every shard holds a full copy. Because co-partitioning is
// decided by shared domains, exactly the tables a constraint can join
// against the key land on the owning shard.
package shard

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/relation"
)

// Mode selects the partitioning function. HashMode is the only one.
type Mode int

// HashMode assigns a key value to shard FNV1a(value) mod N. The hash is
// computed over the value string, never a dictionary code, so placement is
// stable across processes and restarts.
const HashMode Mode = 0

// Key designates the partition column as TABLE.COL.
type Key struct {
	Table  string
	Column string
}

func (k Key) String() string { return k.Table + "." + k.Column }

// ParseKey parses a "TABLE.COL" shard-key flag.
func ParseKey(s string) (Key, error) {
	i := strings.IndexByte(s, '.')
	if i <= 0 || i == len(s)-1 || strings.IndexByte(s[i+1:], '.') >= 0 {
		return Key{}, fmt.Errorf("shard: key %q is not of the form TABLE.COL", s)
	}
	return Key{Table: s[:i], Column: s[i+1:]}, nil
}

// Partitioner maps key values to shards and splits catalogs accordingly.
// It is immutable after construction and safe for concurrent use.
type Partitioner struct {
	key Key
	n   int
	// domain is the name of the key column's value domain; a table
	// co-partitions iff exactly one of its columns shares this domain.
	domain string
}

// NewPartitioner validates the key against the catalog and builds the
// partition function. mode must be HashMode and bounds empty: the hash is
// the one partition function.
func NewPartitioner(cat *relation.Catalog, key Key, n int, mode Mode, bounds []string) (*Partitioner, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: shard count %d: want at least 1", n)
	}
	t := cat.Table(key.Table)
	if t == nil {
		return nil, fmt.Errorf("shard: key table %q does not exist", key.Table)
	}
	c := t.ColumnIndex(key.Column)
	if c < 0 {
		return nil, fmt.Errorf("shard: table %s has no column %q", key.Table, key.Column)
	}
	if mode != HashMode || len(bounds) > 0 {
		return nil, fmt.Errorf("shard: partition mode %d with %d bounds: hash is the only mode, and takes none", mode, len(bounds))
	}
	return &Partitioner{key: key, n: n, domain: t.ColumnDomain(c).Name()}, nil
}

// Shards returns the shard count N.
func (p *Partitioner) Shards() int { return p.n }

// Key returns the designated partition key.
func (p *Partitioner) Key() Key { return p.key }

// ShardOf maps one key value to its owning shard: FNV-1a over the value
// bytes, mod N.
func (p *Partitioner) ShardOf(value string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(value); i++ {
		h ^= uint64(value[i])
		h *= 1099511628211
	}
	return int(h % uint64(p.n))
}

// PartitionColumn returns the column index t partitions on, or -1 when t is
// broadcast (no column over the key domain, or an ambiguous pair of them).
// For the key table itself the designated column always wins.
func (p *Partitioner) PartitionColumn(t *relation.Table) int {
	if t.Name() == p.key.Table {
		return t.ColumnIndex(p.key.Column)
	}
	found := -1
	for i := 0; i < t.NumCols(); i++ {
		if t.ColumnDomain(i).Name() != p.domain {
			continue
		}
		if found >= 0 {
			return -1 // ambiguous: safer to broadcast
		}
		found = i
	}
	return found
}

// Split clones the catalog N times and filters each partitioned table down
// to the rows its shard owns. Broadcast tables keep their full contents on
// every shard. Dictionaries are cloned whole, so value codes agree between
// the shards and the source catalog at split time.
func (p *Partitioner) Split(cat *relation.Catalog) []*relation.Catalog {
	out := make([]*relation.Catalog, p.n)
	for i := range out {
		nc := cat.Clone()
		for _, t := range nc.Tables() {
			pc := p.PartitionColumn(t)
			if pc < 0 {
				continue
			}
			// Precompute code -> shard once per table; rows then route by
			// dictionary code without re-hashing strings.
			dom := t.ColumnDomain(pc)
			vals := dom.Values()
			codeShard := make([]int, len(vals))
			for c, v := range vals {
				codeShard[c] = p.ShardOf(v)
			}
			keep := make([][]int32, 0, t.Len())
			for _, r := range t.Rows() {
				if codeShard[r[pc]] == i {
					keep = append(keep, r)
				}
			}
			t.Truncate()
			for _, r := range keep {
				t.InsertCodes(r)
			}
		}
		out[i] = nc
	}
	return out
}

// RouteUpdate decides which shard owns one tuple mutation. broadcast is true
// for tuples of broadcast tables, which every shard must apply. cat is the
// coordinator's full catalog (schema source of truth).
func (p *Partitioner) RouteUpdate(cat *relation.Catalog, u core.Update) (shard int, broadcast bool, err error) {
	if u.Op != core.UpdateInsert && u.Op != core.UpdateDelete {
		return 0, false, fmt.Errorf("shard: unknown update op %q", u.Op)
	}
	t := cat.Table(u.Table)
	if t == nil {
		return 0, false, fmt.Errorf("shard: update names unknown table %q", u.Table)
	}
	if len(u.Values) != t.NumCols() {
		return 0, false, fmt.Errorf("shard: update for %s has %d values, want %d", u.Table, len(u.Values), t.NumCols())
	}
	pc := p.PartitionColumn(t)
	if pc < 0 {
		return 0, true, nil
	}
	return p.ShardOf(u.Values[pc]), false, nil
}
