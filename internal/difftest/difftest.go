// Package difftest is the correctness backstop of the repository: a seeded,
// deterministic differential-testing harness that holds every evaluation
// path the system ships — the sqlengine SQL baseline, a read replica, and
// the follower, shard coordinator and serving stack each case draws — to
// the BDD evaluator on the primary kernel, on randomly generated
// (constraint, catalog) pairs with random update batches between
// re-checks. Any verdict or witness-set disagreement is a bug in one of the
// engines; the harness shrinks the failing case greedily and emits it,
// with the targets it drew, as a corpus file under testdata/.
//
// The same generator drives three entry points:
//
//   - TestDifferentialSoak: a seeded soak, `-seeds N` catalogs of 8
//     constraints each, deterministic from the seed base.
//   - FuzzDifferential: native Go fuzzing; the fuzz input bytes are decoded
//     into generator choices, targets included, so coverage-guided mutation
//     explores decisions rather than opaque serialized catalogs.
//   - TestCorpus: replays every testdata/*.case file; shrunken repros of
//     fixed divergences are checked in here as regression seeds.
//
// CAvSAT validates SAT-based consistent answers against query-level oracles
// the same way, and ROBDD set-constraint solvers lean on randomized
// cross-validation; this package is that backstop for the paper's claim that
// logical indices return exactly the verdicts of the SQL queries they
// replace.
package difftest

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/relation"
)

// Chooser is the single source of nondeterminism of the generator. The soak
// backs it with a seeded math/rand stream; the fuzz target decodes the fuzz
// input bytes into choices, so the corpus mutates generator decisions rather
// than raw catalogs.
type Chooser interface {
	// Intn returns a choice in [0, n). n must be positive.
	Intn(n int) int
}

// RNGChooser adapts a seeded *rand.Rand into a Chooser.
type RNGChooser struct{ Rand *rand.Rand }

// Intn implements Chooser.
func (c RNGChooser) Intn(n int) int { return c.Rand.Intn(n) }

// ByteChooser decodes a byte stream into choices; once the stream is
// exhausted every choice is 0, so any byte string denotes a complete,
// deterministic case.
type ByteChooser struct {
	Data []byte
	pos  int
}

// Intn implements Chooser.
func (c *ByteChooser) Intn(n int) int {
	if n <= 1 {
		return 0
	}
	if c.pos >= len(c.Data) {
		return 0
	}
	v := int(c.Data[c.pos])
	c.pos++
	return v % n
}

// DomainSpec declares one value domain and its full interned dictionary.
// Interning everything up front keeps dictionary codes (and hence BDD block
// widths) independent of which values the row generator happens to draw —
// and leaves deliberate gaps: values that exist in the dictionary but in no
// row exercise the engines' unknown-vs-absent distinction.
type DomainSpec struct {
	Name   string
	Values []string
}

// ColSpec declares one column of a generated table.
type ColSpec struct {
	Name   string
	Domain string
}

// TableSpec declares one table and its (bag-semantics) contents.
type TableSpec struct {
	Name string
	Cols []ColSpec
	Rows [][]string
}

// ConstraintSpec is one generated constraint, stored as source text so that
// corpus files round-trip through the parser.
type ConstraintSpec struct {
	Name   string
	Source string
}

// Case is a complete, self-describing differential test case: a concrete
// catalog, a constraint set, and a sequence of update batches to drive the
// incremental index-maintenance path. Cases are plain data: they build into
// fresh catalogs any number of times (the shrinker re-runs candidates), and
// they serialize to corpus files (see corpus.go).
type Case struct {
	// Seed feeds core.Options.RandomSeed (the OrderRandom index layout).
	Seed int64
	// Ordering is the index variable-ordering method, in the CLI spelling
	// accepted by core.ParseOrderingMethod.
	Ordering string
	Domains  []DomainSpec
	Tables   []TableSpec
	// Constraints are checked against every oracle after the initial load
	// and again after every update batch.
	Constraints []ConstraintSpec
	// Updates are applied to the primary through core.Checker.Apply — the
	// incremental maintenance path — one batch at a time; every target
	// follows each batch and the whole comparison repeats.
	Updates [][]core.Update
	// Config says which targets the case holds against the primary.
	Config Config
}

// maxShards bounds a case's shard count: every shard is a kernel with its
// own worker goroutines, so a corrupt corpus file must not ask for many.
const maxShards = 4

// Config says which targets RunCase holds against the primary besides the
// SQL baseline and the replica, which every case checks (targets.go), and
// whether the kernels the harness builds (not the coordinator's shard
// kernels) run under DebugChecks, which makes every safe point collect, so a
// Ref held unpinned across one fails at its next use. GenerateCase draws
// it; a corpus file records it, so a shrunken repro replays with the
// targets that caught it. The zero Config is replica-only.
type Config struct {
	Follower, Service, DebugChecks bool
	// Shards is 0, or the coordinator's shard count, 2..maxShards.
	Shards int
}

// Build materializes the case into a fresh catalog.
func (c *Case) Build() (*relation.Catalog, error) {
	cat := relation.NewCatalog()
	for _, d := range c.Domains {
		dom := cat.Domain(d.Name)
		for _, v := range d.Values {
			dom.Intern(v)
		}
	}
	for _, ts := range c.Tables {
		cols := make([]relation.Column, len(ts.Cols))
		for i, cs := range ts.Cols {
			cols[i] = relation.Column{Name: cs.Name, Domain: cs.Domain}
		}
		t, err := cat.CreateTable(ts.Name, cols)
		if err != nil {
			return nil, fmt.Errorf("difftest: building case: %w", err)
		}
		for _, row := range ts.Rows {
			if len(row) != len(cols) {
				return nil, fmt.Errorf("difftest: table %s: row has %d values, want %d", ts.Name, len(row), len(cols))
			}
			t.Insert(row...)
		}
	}
	return cat, nil
}

// clone deep-copies the case, so the shrinker can mutate candidates freely.
func (c *Case) clone() *Case {
	nc := &Case{Seed: c.Seed, Ordering: c.Ordering, Config: c.Config}
	for _, d := range c.Domains {
		nc.Domains = append(nc.Domains, DomainSpec{Name: d.Name, Values: append([]string(nil), d.Values...)})
	}
	for _, t := range c.Tables {
		nt := TableSpec{Name: t.Name, Cols: append([]ColSpec(nil), t.Cols...)}
		for _, r := range t.Rows {
			nt.Rows = append(nt.Rows, append([]string(nil), r...))
		}
		nc.Tables = append(nc.Tables, nt)
	}
	nc.Constraints = append([]ConstraintSpec(nil), c.Constraints...)
	for _, b := range c.Updates {
		nb := make([]core.Update, len(b))
		for i, u := range b {
			nb[i] = core.Update{Table: u.Table, Op: u.Op, Values: append([]string(nil), u.Values...)}
		}
		nc.Updates = append(nc.Updates, nb)
	}
	return nc
}
