package shard_test

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/shard"
)

// fixtureCat builds a catalog with shared domains so tables co-partition:
// CUST(city, areacode, state) is the key table on city, SUPP(city, state)
// co-partitions through the shared "city" domain, and AREA(areacode) is
// broadcast (no column over the key domain).
func fixtureCat(t testing.TB) *relation.Catalog {
	t.Helper()
	cat := relation.NewCatalog()
	mustCreate := func(name string, cols []relation.Column) *relation.Table {
		tb, err := cat.CreateTable(name, cols)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	mustCreate("CUST", []relation.Column{
		{Name: "city", Domain: "city"},
		{Name: "areacode", Domain: "areacode"},
		{Name: "state", Domain: "state"},
	})
	mustCreate("SUPP", []relation.Column{
		{Name: "city", Domain: "city"},
		{Name: "state", Domain: "state"},
	})
	mustCreate("AREA", []relation.Column{
		{Name: "areacode", Domain: "areacode"},
	})
	return cat
}

var cities = []string{"Toronto", "Oshawa", "Newark", "Trenton", "Buffalo", "Albany", "Camden", "Utica"}
var codes = []string{"416", "647", "905", "973", "201", "908", "716", "518"}
var states = []string{"Ontario", "NJ", "NY"}

// populate fills the fixture with deterministic pseudo-random rows.
func populate(cat *relation.Catalog, rng *rand.Rand, nRows int) {
	cust := cat.Table("CUST")
	supp := cat.Table("SUPP")
	area := cat.Table("AREA")
	for i := 0; i < nRows; i++ {
		cust.Insert(cities[rng.Intn(len(cities))], codes[rng.Intn(len(codes))], states[rng.Intn(len(states))])
	}
	for i := 0; i < nRows/2; i++ {
		supp.Insert(cities[rng.Intn(len(cities))], states[rng.Intn(len(states))])
	}
	for _, c := range codes[:4] {
		area.Insert(c)
	}
}

func mustParseOne(t testing.TB, text string) logic.Constraint {
	t.Helper()
	cts, err := logic.ParseConstraints(text)
	if err != nil {
		t.Fatalf("parsing %q: %v", text, err)
	}
	if len(cts) != 1 {
		t.Fatalf("want one constraint, got %d", len(cts))
	}
	return cts[0]
}

func newPartitioner(t testing.TB, cat *relation.Catalog, n int) *shard.Partitioner {
	t.Helper()
	key, err := shard.ParseKey("CUST.city")
	if err != nil {
		t.Fatal(err)
	}
	p, err := shard.NewPartitioner(cat, key, n, shard.HashMode, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDecompose(t *testing.T) {
	cat := fixtureCat(t)
	p := newPartitioner(t, cat, 4)
	res := logic.CatalogResolver{Catalog: cat}

	cases := []struct {
		name string
		text string
		want shard.PlanKind
		mode logic.CheckMode
	}{
		{
			name: "fd_join_local",
			text: `constraint c: forall c, a, s1, s2: CUST(c, a, s1) and SUPP(c, s2) => s1 = s2.`,
			want: shard.PlanLocal,
			mode: logic.CheckValidity,
		},
		{
			name: "inclusion_local",
			// The negative CUST side is fine: the violation condition is
			// guarded by the positive SUPP occurrence on the same anchor.
			text: `constraint c: forall c, s: SUPP(c, s) => exists a, s2: CUST(c, a, s2).`,
			want: shard.PlanLocal,
			mode: logic.CheckValidity,
		},
		{
			name: "existence_local",
			text: `constraint c: exists c, a: CUST(c, a, "NJ").`,
			want: shard.PlanLocal,
			mode: logic.CheckSatisfiability,
		},
		{
			name: "broadcast_only_single",
			text: `constraint c: forall a: AREA(a) => a in {"416", "647", "905", "973"}.`,
			want: shard.PlanSingleShard,
		},
		{
			name: "const_key_single",
			text: `constraint c: forall a, s: CUST("Toronto", a, s) => s = "Ontario".`,
			want: shard.PlanSingleShard,
		},
		{
			name: "unguarded_residual",
			// Violation condition is AREA(a) and not CUST(c, a, s): its only
			// partitioned occurrence is negative, so a non-owner shard would
			// report spurious violations under a naive union.
			text: `constraint c: forall c, a, s: AREA(a) => CUST(c, a, s).`,
			want: shard.PlanResidual,
		},
		{
			name: "two_anchors_residual",
			text: `constraint c: forall c1, c2, s: SUPP(c1, s) and SUPP(c2, s) => c1 = c2.`,
			want: shard.PlanResidual,
		},
		{
			name: "prenexable_inner_anchor_local",
			// The inner existential hoists into the leading block under
			// prenexing, so the anchor still ranges per shard: local.
			text: `constraint c: forall s: (exists c: SUPP(c, s)) => s in {"NJ", "NY", "Ontario"}.`,
			want: shard.PlanLocal,
			mode: logic.CheckValidity,
		},
		{
			name: "inner_anchor_residual",
			// Here the anchor sits under an inner universal that prenexing
			// cannot hoist past the leading existential: each shard would
			// quantify "forall c" over only its own cities, and an AND-merge
			// of per-shard verdicts would accept a different s per shard.
			text: `constraint c: exists s: (forall c: SUPP(c, s)).`,
			want: shard.PlanResidual,
		},
		{
			name: "unknown_table_residual",
			text: `constraint c: forall x: GHOST(x) => x = x.`,
			want: shard.PlanResidual,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := p.Decompose(mustParseOne(t, tc.text), res)
			if plan.Kind != tc.want {
				t.Fatalf("plan = %v, want kind %v", plan, tc.want)
			}
			if tc.want == shard.PlanLocal && plan.Mode != tc.mode {
				t.Fatalf("plan mode = %v, want %v", plan.Mode, tc.mode)
			}
		})
	}

	t.Run("const_key_targets_owner", func(t *testing.T) {
		plan := p.Decompose(mustParseOne(t,
			`constraint c: forall a, s: CUST("Toronto", a, s) => s = "Ontario".`), res)
		if plan.Kind != shard.PlanSingleShard || plan.Shard != p.ShardOf("Toronto") {
			t.Fatalf("plan = %v, want single-shard at %d", plan, p.ShardOf("Toronto"))
		}
	})
}

func TestPartitionerSplit(t *testing.T) {
	cat := fixtureCat(t)
	populate(cat, rand.New(rand.NewSource(7)), 500)
	p := newPartitioner(t, cat, 3)

	parts := p.Split(cat)
	if len(parts) != 3 {
		t.Fatalf("got %d partitions", len(parts))
	}
	custTotal, suppTotal := 0, 0
	for i, pc := range parts {
		cust, supp, area := pc.Table("CUST"), pc.Table("SUPP"), pc.Table("AREA")
		custTotal += cust.Len()
		suppTotal += supp.Len()
		if area.Len() != cat.Table("AREA").Len() {
			t.Fatalf("shard %d: broadcast AREA has %d rows, want %d", i, area.Len(), cat.Table("AREA").Len())
		}
		for r := 0; r < cust.Len(); r++ {
			if got := p.ShardOf(cust.Value(r, 0)); got != i {
				t.Fatalf("shard %d holds CUST city %q owned by %d", i, cust.Value(r, 0), got)
			}
		}
		for r := 0; r < supp.Len(); r++ {
			if got := p.ShardOf(supp.Value(r, 0)); got != i {
				t.Fatalf("shard %d holds SUPP city %q owned by %d", i, supp.Value(r, 0), got)
			}
		}
	}
	if custTotal != cat.Table("CUST").Len() || suppTotal != cat.Table("SUPP").Len() {
		t.Fatalf("partition row totals %d/%d, want %d/%d",
			custTotal, suppTotal, cat.Table("CUST").Len(), cat.Table("SUPP").Len())
	}
	// The hash is the one partition function: no other mode, and no bounds.
	if _, err := shard.NewPartitioner(cat, p.Key(), 3, shard.HashMode+1, nil); err == nil {
		t.Fatal("a second partition mode accepted")
	}
	if _, err := shard.NewPartitioner(cat, p.Key(), 3, shard.HashMode, []string{"M", "T"}); err == nil {
		t.Fatal("range bounds accepted")
	}
}

func TestParseKey(t *testing.T) {
	for _, bad := range []string{"", "CUST", ".city", "CUST.", "A.B.C"} {
		if _, err := shard.ParseKey(bad); err == nil {
			t.Errorf("ParseKey(%q) accepted", bad)
		}
	}
	k, err := shard.ParseKey("CUST.city")
	if err != nil || k.Table != "CUST" || k.Column != "city" {
		t.Fatalf("ParseKey = %v, %v", k, err)
	}
}
