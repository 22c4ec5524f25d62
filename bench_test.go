// Package repro's benchmark harness: one testing.B benchmark per table and
// figure of the paper's evaluation (§5), so `go test -bench=. -benchmem`
// regenerates the performance side of every experiment. cmd/cvbench prints
// the corresponding full tables; see EXPERIMENTS.md for paper-vs-measured.
package repro

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/fdd"
	"repro/internal/index"
	"repro/internal/logic"
	"repro/internal/ordering"
	"repro/internal/relation"
	"repro/internal/sqlengine"
)

// ---- shared fixtures -------------------------------------------------

type customerFixture struct {
	cat  *relation.Catalog
	data *datagen.CustomerData
}

var customers = sync.OnceValue(func() *customerFixture {
	rng := rand.New(rand.NewSource(1))
	cat := relation.NewCatalog()
	data, err := datagen.Customers(cat, "CUST", datagen.CustomerSpec{Tuples: 100000, NoiseRate: 0.001}, rng)
	if err != nil {
		panic(err)
	}
	return &customerFixture{cat: cat, data: data}
})

var prodFamily = sync.OnceValue(func() *relation.Table {
	rng := rand.New(rand.NewSource(2))
	cat := relation.NewCatalog()
	t, err := datagen.KProd(cat, "R", datagen.ProdSpec{Products: 1, Attrs: 5, Tuples: 50000, DomSize: 100}, rng)
	if err != nil {
		panic(err)
	}
	return t
})

// ---- Figure 2(a): ordering effect on index size ----------------------

// BenchmarkFig2aOrderingEffect builds the 1-PROD index under the
// Prob-Converge ordering and under its reverse (a deliberately bad order),
// the two endpoints of the Figure 2(a) curve.
func BenchmarkFig2aOrderingEffect(b *testing.B) {
	t := prodFamily()
	good := ordering.ProbConverge(t, nil)
	bad := make([]int, len(good))
	for i, v := range good {
		bad[len(good)-1-i] = v
	}
	cols := []int{0, 1, 2, 3, 4}
	for _, tc := range []struct {
		name  string
		order []int
	}{{"prob-converge", good}, {"reversed", bad}} {
		b.Run(tc.name, func(b *testing.B) {
			nodes := 0
			for i := 0; i < b.N; i++ {
				store := index.NewStore(index.Options{})
				ix, err := store.Build("R", t, cols, tc.order)
				if err != nil {
					b.Fatal(err)
				}
				nodes = ix.NodeCount()
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// ---- Figure 4: index construction and maintenance --------------------

func BenchmarkFig4aConstruction(b *testing.B) {
	fx := customers()
	for _, tc := range []struct {
		name string
		cols []int
	}{{"ncs29vars", []int{0, 2, 3}}, {"csz35vars", []int{2, 3, 4}}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				store := index.NewStore(index.Options{})
				if _, err := store.Build("X", fx.data.Table, tc.cols, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig4bUpdate(b *testing.B) {
	fx := customers()
	for _, tc := range []struct {
		name string
		cols []int
	}{{"ncs29vars", []int{0, 2, 3}}, {"csz35vars", []int{2, 3, 4}}} {
		b.Run(tc.name, func(b *testing.B) {
			store := index.NewStore(index.Options{})
			ix, err := store.Build("X", fx.data.Table, tc.cols, nil)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			// Each update is a one-row batch: Index.Apply, the table's move
			// and Commit. One untimed pair first lets the index count the
			// table's rows and the table build its multiset of rows.
			t := fx.data.Table
			pair := func() {
				row := t.Row(rng.Intn(t.Len()))
				ch, err := ix.Apply(nil, [][]int32{row})
				if err != nil {
					b.Fatal(err)
				}
				t.DeleteCodes(row)
				ch.Commit()
				if ch, err = ix.Apply([][]int32{row}, nil); err != nil {
					b.Fatal(err)
				}
				t.InsertCodes(row)
				ch.Commit()
			}
			pair()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pair()
			}
		})
	}
}

// ---- Figure 5(a): membership constraints, BDD vs SQL ------------------

func fig5aChecker(b *testing.B) (*core.Checker, logic.Constraint) {
	b.Helper()
	fx := customers()
	// The benchmark loops one evaluation thousands of times; give it more
	// headroom than the paper's default 10^6-node budget so the abort path
	// (measured separately by BenchmarkThresholdFill) does not trigger.
	chk := core.New(fx.cat, core.Options{NodeBudget: 8_000_000})
	if chk.Store().Index("CA") == nil {
		if _, err := chk.BuildIndex("CA", "CUST", []string{"city", "areacode"}, core.OrderProbConverge); err != nil {
			b.Fatal(err)
		}
	}
	if fx.cat.Table("CONS") == nil {
		rng := rand.New(rand.NewSource(4))
		if _, err := datagen.MembershipConstraints(fx.cat, "CONS", fx.data, 10000, rng); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := chk.BuildIndex("CONS", "CONS", nil, core.OrderSchema); err != nil {
		b.Fatal(err)
	}
	f, err := logic.Parse(`forall c, a: CA(c, a) and (exists x: CONS(c, x)) => CONS(c, a)`)
	if err != nil {
		b.Fatal(err)
	}
	return chk, logic.Constraint{Name: "membership", F: f}
}

func BenchmarkFig5aMembership(b *testing.B) {
	b.Run("bdd", func(b *testing.B) {
		chk, ct := fig5aChecker(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := chk.CheckOne(ct); res.Err != nil || res.FellBack {
				b.Fatalf("%+v", res)
			}
		}
	})
	b.Run("sql", func(b *testing.B) {
		chk, ct := fig5aChecker(b)
		q, err := sqlengine.Compile(ct, chk.Resolver())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := q.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Figure 5(b): FD areacode → state ---------------------------------

func fig5bChecker(b *testing.B, noFast bool) (*core.Checker, logic.Constraint) {
	b.Helper()
	fx := customers()
	chk := core.New(fx.cat, core.Options{NoFDFastPath: noFast, NodeBudget: 8_000_000})
	if _, err := chk.BuildIndex("NCS", "CUST", []string{"areacode", "city", "state"}, core.OrderProbConverge); err != nil {
		b.Fatal(err)
	}
	f, err := logic.Parse(`forall a, s1, s2: NCS(a, _, s1) and NCS(a, _, s2) => s1 = s2`)
	if err != nil {
		b.Fatal(err)
	}
	return chk, logic.Constraint{Name: "fd", F: f}
}

func BenchmarkFig5bFD(b *testing.B) {
	b.Run("bdd-project", func(b *testing.B) {
		chk, ct := fig5bChecker(b, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := chk.CheckOne(ct); res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	})
	b.Run("bdd-selfjoin", func(b *testing.B) {
		chk, ct := fig5bChecker(b, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := chk.CheckOne(ct); res.Err != nil || res.FellBack {
				b.Fatalf("%+v", res)
			}
		}
	})
	b.Run("sql-groupby", func(b *testing.B) {
		fx := customers()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sqlengine.CheckFD(fx.data.Table, []int{0}, []int{3})
		}
	})
	b.Run("sql-selfjoin", func(b *testing.B) {
		chk, ct := fig5bChecker(b, false)
		q, err := sqlengine.Compile(ct, chk.Resolver())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := q.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Figure 6: rewrite rules at the BDD level --------------------------

type fig6Fixture struct {
	k          *bdd.Kernel
	r1, r2     bdd.Ref
	p, q       bdd.Ref
	joinL      []*fdd.Domain
	joinR      []*fdd.Domain
	topCube    bdd.Ref
	bottomCube bdd.Ref
	replaceMap bdd.ReplaceMap
}

var fig6 = sync.OnceValue(func() *fig6Fixture {
	k := bdd.New(bdd.Config{Vars: 0, CacheSize: 1 << 18})
	space := fdd.NewSpace(k)
	rng := rand.New(rand.NewSource(5))
	const domSize = 1 << 10
	a := space.NewDomain("a", domSize)
	bb := space.NewDomain("b", domSize)
	c := space.NewDomain("c", domSize)
	d := space.NewDomain("d", domSize)
	build := func(doms []*fdd.Domain, n int) bdd.Ref {
		rows := make([][]int, n)
		for i := range rows {
			row := make([]int, len(doms))
			for j := range row {
				row[j] = rng.Intn(domSize)
			}
			rows[i] = row
		}
		f, err := fdd.Relation(doms, rows)
		if err != nil {
			panic(err)
		}
		return k.Protect(f)
	}
	fx := &fig6Fixture{
		k:     k,
		r1:    build([]*fdd.Domain{a, bb}, 120000),
		r2:    build([]*fdd.Domain{c, d}, 60000),
		joinL: []*fdd.Domain{bb},
		joinR: []*fdd.Domain{c},
	}
	fx.p = build([]*fdd.Domain{a, bb, c}, 120000)
	fx.q = build([]*fdd.Domain{a, bb, c}, 60000)
	fx.topCube = k.Protect(a.Cube())
	fx.bottomCube = k.Protect(c.Cube())
	m, err := fdd.ReplaceMap(fx.joinR, fx.joinL)
	if err != nil {
		panic(err)
	}
	fx.replaceMap = m
	return fx
})

func BenchmarkFig6aJoinRewrite(b *testing.B) {
	fx := fig6()
	k := fx.k
	b.Run("naive-equality", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k.ClearCaches()
			k.GC()
			eq := fdd.EqVar(fx.joinL[0], fx.joinR[0])
			step := k.And(fx.r1, fx.r2)
			step = k.And(step, eq)
			if fdd.Exists(step, fx.joinR...) == bdd.Invalid {
				b.Fatal(k.Err())
			}
		}
	})
	b.Run("optimized-rename", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k.ClearCaches()
			k.GC()
			renamed := k.Replace(fx.r2, fx.replaceMap)
			if k.And(fx.r1, renamed) == bdd.Invalid {
				b.Fatal(k.Err())
			}
		}
	})
}

func BenchmarkFig6bExistsPullUp(b *testing.B) {
	fx := fig6()
	k := fx.k
	b.Run("ExP-or-ExQ", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k.ClearCaches()
			k.GC()
			l := k.Exists(fx.p, fx.bottomCube)
			if k.Or(l, k.Exists(fx.q, fx.bottomCube)) == bdd.Invalid {
				b.Fatal(k.Err())
			}
		}
	})
	b.Run("AppEx-or", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k.ClearCaches()
			k.GC()
			if k.AppEx(fx.p, fx.q, bdd.OpOr, fx.bottomCube) == bdd.Invalid {
				b.Fatal(k.Err())
			}
		}
	})
}

func BenchmarkFig6cForallPushDown(b *testing.B) {
	fx := fig6()
	k := fx.k
	b.Run("AppAll-and", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k.ClearCaches()
			k.GC()
			if k.AppAll(fx.p, fx.q, bdd.OpAnd, fx.topCube) == bdd.Invalid {
				b.Fatal(k.Err())
			}
		}
	})
	b.Run("FAP-and-FAQ", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k.ClearCaches()
			k.GC()
			l := k.Forall(fx.p, fx.topCube)
			if k.And(l, k.Forall(fx.q, fx.topCube)) == bdd.Invalid {
				b.Fatal(k.Err())
			}
		}
	})
}

// ---- Table 1: Q1–Q5 under the three approaches ------------------------

type table1Fixture struct {
	workload *datagen.Table1Workload
	sqlQs    []*sqlengine.Query
	random   *core.Checker
	optimal  *core.Checker
}

var table1 = sync.OnceValue(func() *table1Fixture {
	rng := rand.New(rand.NewSource(6))
	w, err := datagen.NewTable1Workload(datagen.Table1Spec{MainTuples: 50000, RefTuples: 10000}, rng)
	if err != nil {
		panic(err)
	}
	fx := &table1Fixture{workload: w}
	res := logic.CatalogResolver{Catalog: w.Catalog}
	for _, ct := range w.Constraints {
		q, err := sqlengine.Compile(ct, res)
		if err != nil {
			panic(err)
		}
		fx.sqlQs = append(fx.sqlQs, q)
	}
	fx.random = core.New(w.Catalog, core.Options{RandomSeed: 7})
	fx.optimal = core.New(w.Catalog, core.Options{})
	for _, tbl := range []string{"REL", "REF"} {
		if _, err := fx.random.BuildIndex(tbl, tbl, nil, core.OrderRandom); err != nil {
			panic(err)
		}
		if _, err := fx.optimal.BuildIndex(tbl, tbl, nil, core.OrderProbConverge); err != nil {
			panic(err)
		}
	}
	return fx
})

func BenchmarkTable1Queries(b *testing.B) {
	fx := table1()
	for qi, ct := range fx.workload.Constraints {
		name := fmt.Sprintf("Q%d", qi+1)
		b.Run("sql/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := fx.sqlQs[qi].Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("bdd-random/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := fx.random.CheckOne(ct); res.Err != nil || res.FellBack {
					b.Fatalf("%+v", res)
				}
			}
		})
		b.Run("bdd-optimized/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := fx.optimal.CheckOne(ct); res.Err != nil || res.FellBack {
					b.Fatalf("%+v", res)
				}
			}
		})
	}
}

// ---- §5.2 threshold: time to fill the node budget ----------------------

func BenchmarkThresholdFill(b *testing.B) {
	for _, budget := range []int{1000, 100000, 1000000} {
		b.Run(fmt.Sprintf("budget-%d", budget), func(b *testing.B) {
			rng := rand.New(rand.NewSource(8))
			const nVars = 96
			for i := 0; i < b.N; i++ {
				k := bdd.New(bdd.Config{Vars: nVars, NodeBudget: budget, CacheSize: 1 << 16})
				f := bdd.True
				for f != bdd.Invalid {
					clause := k.Xor(k.Xor(k.Var(rng.Intn(nVars)), k.Var(rng.Intn(nVars))), k.Var(rng.Intn(nVars)))
					next := k.And(f, clause)
					k.Unprotect(f)
					f = k.Protect(next)
					k.SafePoint()
				}
			}
		})
	}
}

// ---- kernel micro-benchmarks -------------------------------------------

func BenchmarkKernelApply(b *testing.B) {
	fx := fig6()
	k := fx.k
	for i := 0; i < b.N; i++ {
		k.ClearCaches()
		k.GC()
		if k.And(fx.p, fx.q) == bdd.Invalid {
			b.Fatal(k.Err())
		}
	}
}

func BenchmarkRelationEncode(b *testing.B) {
	fx := customers()
	rows := make([][]int, fx.data.Table.Len())
	for i := range rows {
		r := fx.data.Table.Row(i)
		rows[i] = []int{int(r[0]), int(r[2]), int(r[3])}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := bdd.New(bdd.Config{Vars: 0})
		space := fdd.NewSpace(k)
		doms := []*fdd.Domain{
			space.NewDomain("areacode", datagen.NumAreacodes),
			space.NewDomain("city", datagen.NumCities),
			space.NewDomain("state", datagen.NumStates),
		}
		if _, err := fdd.Relation(doms, rows); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fx.data.Table.Len()), "tuples")
}
