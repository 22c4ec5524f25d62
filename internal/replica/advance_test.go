package replica_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/fdd"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/replica"
)

// advance_test.go covers the in-place handoff: a worker that holds a replica
// moves it to the next version instead of building another, answers exactly
// what a freshly built replica and the primary answer, and falls back to
// building one when it cannot follow.

const ordersRules = `
	constraint cust_region:
	    forall c, r1, r2: ORD(c, _, r1, _) and ORD(c, _, r2, _) => r1 = r2.
	constraint east_items:
	    forall c, i, s: ORD(c, i, "r0", s) => i in {"i0", "i1", "i2", "i3", "i4", "i5"}.
	constraint shipped_known:
	    forall c, i, r: ORD(c, i, r, "s1") => exists g: CUSTOMER(c, g).
	constraint some_gold:
	    exists c: CUSTOMER(c, "g2").
`

// orders is a two-table primary with the tuples it currently holds, so a
// test can draw deletions from what is there and insertions from values the
// dictionaries already know (an index block never has to widen).
type orders struct {
	chk  *core.Checker
	cts  []logic.Constraint
	rows map[string][][]string
	rng  *rand.Rand
	// countsOnly makes imageOf skip the constraints: for a node budget too
	// tight to decide them under.
	countsOnly bool
}

func (o *orders) randomRow(table string) []string {
	if table == "CUSTOMER" {
		return []string{fmt.Sprintf("c%d", o.rng.Intn(40)), fmt.Sprintf("g%d", o.rng.Intn(3))}
	}
	// Clean rows: a customer has one region, region r0 orders items 0..5.
	c := o.rng.Intn(40)
	region, item := c%4, o.rng.Intn(12)
	if region == 0 {
		item %= 6
	}
	return []string{fmt.Sprintf("c%d", c), fmt.Sprintf("i%d", item), fmt.Sprintf("r%d", region), fmt.Sprintf("s%d", o.rng.Intn(3))}
}

// anomalies are the rows that violate cust_region and east_items; batch
// inserts and deletes them so that verdicts flip both ways.
var anomalies = [][]string{{"c1", "i3", "r2", "s0"}, {"c4", "i9", "r0", "s2"}}

func newOrders(t *testing.T, opts core.Options, method core.OrderingMethod) *orders {
	t.Helper()
	o := &orders{rows: map[string][][]string{}, rng: rand.New(rand.NewSource(7))}
	cat := relation.NewCatalog()
	ord, err := cat.CreateTable("ORD", []relation.Column{
		{Name: "cust", Domain: "cust"}, {Name: "item", Domain: "item"}, {Name: "region", Domain: "region"}, {Name: "status", Domain: "status"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cust, err := cat.CreateTable("CUSTOMER", []relation.Column{{Name: "cust", Domain: "cust"}, {Name: "grade", Domain: "grade"}})
	if err != nil {
		t.Fatal(err)
	}
	// Every value a later insertion can draw is interned by the load.
	for c := 0; c < 40; c++ {
		row := []string{fmt.Sprintf("c%d", c), fmt.Sprintf("i%d", c%12%(6+6*min(c%4, 1))), fmt.Sprintf("r%d", c%4), fmt.Sprintf("s%d", c%3)}
		ord.Insert(row...)
		o.rows["ORD"] = append(o.rows["ORD"], row)
		row = []string{fmt.Sprintf("c%d", c), fmt.Sprintf("g%d", c%3)}
		cust.Insert(row...)
		o.rows["CUSTOMER"] = append(o.rows["CUSTOMER"], row)
	}
	for i := 0; i < 400; i++ {
		row := o.randomRow("ORD")
		ord.Insert(row...)
		o.rows["ORD"] = append(o.rows["ORD"], row)
	}
	o.chk = core.New(cat, opts)
	for _, name := range []string{"ORD", "CUSTOMER"} {
		if _, err := o.chk.BuildIndex(name, name, nil, method); err != nil {
			t.Fatal(err)
		}
	}
	if o.cts, err = logic.ParseConstraints(ordersRules); err != nil {
		t.Fatal(err)
	}
	return o
}

// batch applies n random updates to the primary.
func (o *orders) batch(t *testing.T, n int) {
	t.Helper()
	var ups []core.Update
	for _, row := range anomalies {
		if o.rng.Intn(3) > 0 {
			continue
		}
		held := o.rows["ORD"]
		if j := slices.IndexFunc(held, func(r []string) bool { return slices.Equal(r, row) }); j >= 0 {
			ups = append(ups, core.Update{Table: "ORD", Op: core.UpdateDelete, Values: row})
			o.rows["ORD"] = slices.Delete(held, j, j+1)
		} else {
			ups = append(ups, core.Update{Table: "ORD", Op: core.UpdateInsert, Values: row})
			o.rows["ORD"] = append(held, row)
		}
	}
	for i := 0; i < n; i++ {
		table := "ORD"
		if o.rng.Intn(5) == 0 {
			table = "CUSTOMER"
		}
		held := o.rows[table]
		if len(held) > 20 && o.rng.Intn(2) == 0 {
			j := o.rng.Intn(len(held))
			ups = append(ups, core.Update{Table: table, Op: core.UpdateDelete, Values: held[j]})
			o.rows[table] = slices.Delete(held, j, j+1)
			continue
		}
		row := o.randomRow(table)
		ups = append(ups, core.Update{Table: table, Op: core.UpdateInsert, Values: row})
		o.rows[table] = append(held, row)
	}
	if _, err := o.chk.Apply(ups); err != nil {
		t.Fatal(err)
	}
}

// image is what a checker says about the database: every verdict, and the
// tuple count of every index.
type image struct {
	violated []bool
	counts   []float64
	fdFast   int
}

func (o *orders) imageOf(chk *core.Checker, opts core.CheckOptions) (image, error) {
	var im image
	fast := chk.Stats().FDFastPath
	for _, ct := range o.cts {
		if o.countsOnly {
			break
		}
		res := chk.CheckOneOpts(ct, opts)
		if res.Err != nil || res.FellBack {
			return im, fmt.Errorf("%s: err %v, fell back %v", ct.Name, res.Err, res.FellBack)
		}
		im.violated = append(im.violated, res.Violated)
	}
	im.fdFast = chk.Stats().FDFastPath - fast
	for _, s := range chk.SnapshotIndices() {
		var vars []int
		for _, b := range s.Blocks {
			vars = append(vars, b.Vars...)
		}
		slices.Sort(vars)
		im.counts = append(im.counts, chk.Store().Kernel().SatCountWithin(s.Root, vars))
	}
	return im, nil
}

// primaryImage is imageOf for the test's own goroutine.
func (o *orders) primaryImage(t *testing.T, chk *core.Checker) image {
	t.Helper()
	im, err := o.imageOf(chk, core.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func sameImage(a, b image) bool {
	return slices.Equal(a.violated, b.violated) && slices.Equal(a.counts, b.counts) && a.fdFast == b.fdFast
}

// onPool runs fn on a worker of the pool and fails the test, from the test's
// goroutine, with the error it returns.
func onPool(t *testing.T, pool *replica.Pool, fn func(chk *core.Checker, epoch uint64) error) {
	t.Helper()
	var ferr error
	if err := pool.Do(context.Background(), func(chk *core.Checker, epoch uint64) { ferr = fn(chk, epoch) }); err != nil {
		t.Fatal(err)
	}
	if ferr != nil {
		t.Fatal(ferr)
	}
}

func publish(t *testing.T, pool *replica.Pool, primary *core.Checker, epoch uint64) *replica.Version {
	t.Helper()
	v, err := replica.NewVersion(primary, epoch)
	if err != nil {
		t.Fatal(err)
	}
	pool.Publish(v)
	return v
}

// served is what one job on a pool's worker saw.
type served struct {
	kernel *bdd.Kernel
	image  image
}

// serve runs one job that must be served at epoch and reports the worker's
// kernel and its image of the database.
func (o *orders) serve(t *testing.T, pool *replica.Pool, epoch uint64) served {
	t.Helper()
	var out served
	onPool(t, pool, func(chk *core.Checker, at uint64) (err error) {
		if at != epoch {
			return fmt.Errorf("served at epoch %d, want %d", at, epoch)
		}
		out.kernel = chk.Store().Kernel()
		if err := out.kernel.Err(); err != nil {
			return fmt.Errorf("the replica's kernel was handed over with %w", err)
		}
		out.image, err = o.imageOf(chk, core.CheckOptions{NoSQLFallback: true})
		return err
	})
	return out
}

func TestWorkerAdvancesItsReplicaInPlace(t *testing.T) {
	o := newOrders(t, core.Options{}, core.OrderProbConverge)
	v, err := replica.NewVersion(o.chk, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := replica.New(1, v)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	kernel := o.serve(t, pool, 1).kernel

	const batches = 60
	flips := 0
	var last image
	for epoch := uint64(2); epoch < 2+batches; epoch++ {
		o.batch(t, 1+o.rng.Intn(12))
		v := publish(t, pool, o.chk, epoch)
		want := o.primaryImage(t, o.chk)
		if want.fdFast != 1 {
			t.Fatalf("the primary decided %d constraints by the FD fast path, want 1", want.fdFast)
		}
		got := o.serve(t, pool, epoch)
		if got.kernel != kernel {
			t.Fatalf("epoch %d: the worker swapped kernels", epoch)
		}
		onPool(t, pool, func(chk *core.Checker, _ uint64) error {
			if chk.Catalog() != v.Catalog() {
				return fmt.Errorf("epoch %d: the advanced replica reads another catalog than its version's", epoch)
			}
			return nil
		})
		fresh, err := replica.New(1, v)
		if err != nil {
			t.Fatal(err)
		}
		built := o.serve(t, fresh, epoch)
		fresh.Close()
		if !sameImage(got.image, want) || !sameImage(built.image, want) {
			t.Fatalf("epoch %d: primary %+v\nadvanced replica %+v\nfresh replica %+v", epoch, want, got.image, built.image)
		}
		if epoch > 2 && !slices.Equal(want.violated, last.violated) {
			flips++
		}
		last = want
	}
	if flips == 0 {
		t.Fatal("no verdict ever changed across the batches: the comparison saw one state")
	}
	if pool.Swaps() != batches+1 || pool.Rebuilds() != 1 {
		t.Fatalf("swaps %d, rebuilds %d; want %d handoffs of which only the first built a replica", pool.Swaps(), pool.Rebuilds(), batches+1)
	}
}

// blockOrder lists an index's column blocks by the level of their first bit.
func blockOrder(chk *core.Checker, index string) []string {
	k := chk.Store().Kernel()
	doms := slices.Clone(chk.Store().Index(index).Domains())
	slices.SortFunc(doms, func(a, b *fdd.Domain) int { return k.LevelOfVar(a.Vars()[0]) - k.LevelOfVar(b.Vars()[0]) })
	var names []string
	for _, d := range doms {
		names = append(names, d.Name())
	}
	return names
}

func TestWorkerRebuildsWhenItCannotAdvance(t *testing.T) {
	// start serves epoch 1, then epoch 2 in place: the worker holds a replica
	// that has advanced once when the obstacle arrives.
	start := func(t *testing.T, o *orders) (*replica.Pool, *bdd.Kernel) {
		t.Helper()
		v, err := replica.NewVersion(o.chk, 1)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := replica.New(1, v)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(pool.Close)
		o.serve(t, pool, 1)
		o.batch(t, 8)
		publish(t, pool, o.chk, 2)
		kernel := o.serve(t, pool, 2).kernel
		if pool.Swaps() != 2 || pool.Rebuilds() != 1 {
			t.Fatalf("before the obstacle: swaps %d, rebuilds %d, want 2 and 1", pool.Swaps(), pool.Rebuilds())
		}
		return pool, kernel
	}
	// rebuilt publishes primary's state as epoch 3 and wants it served, right,
	// by a replica built for it.
	rebuilt := func(t *testing.T, o *orders, pool *replica.Pool, primary *core.Checker, old *bdd.Kernel) *bdd.Kernel {
		t.Helper()
		publish(t, pool, primary, 3)
		got := o.serve(t, pool, 3)
		if want := o.primaryImage(t, primary); !sameImage(got.image, want) {
			t.Fatalf("replica %+v, primary %+v", got.image, want)
		}
		if got.kernel == old || pool.Rebuilds() != 2 {
			t.Fatalf("the worker kept its kernel (rebuilds %d)", pool.Rebuilds())
		}
		return got.kernel
	}

	t.Run("primary reordered", func(t *testing.T) {
		o := newOrders(t, core.Options{}, core.OrderSchema)
		pool, kernel := start(t, o)
		before := blockOrder(o.chk, "ORD")
		o.chk.Reorder()
		if slices.Equal(before, blockOrder(o.chk, "ORD")) {
			t.Fatalf("sifting left the block order at %v: the test needs a relation the schema order is bad for", before)
		}
		o.batch(t, 8)
		kernel = rebuilt(t, o, pool, o.chk, kernel)
		// The rebuilt replica has the new order and advances again.
		o.batch(t, 8)
		publish(t, pool, o.chk, 4)
		if got := o.serve(t, pool, 4); got.kernel != kernel || pool.Rebuilds() != 2 || !sameImage(got.image, o.primaryImage(t, o.chk)) {
			t.Fatalf("the rebuilt replica did not advance in place (rebuilds %d), or advanced wrongly", pool.Rebuilds())
		}
	})

	t.Run("index rebuilt with wider blocks", func(t *testing.T) {
		o := newOrders(t, core.Options{}, core.OrderProbConverge)
		pool, kernel := start(t, o)
		// What a restart or a follower's reload does: another checker over a
		// catalog whose dictionaries outgrew the blocks, indices built anew.
		cat := o.chk.Catalog().Clone()
		for i := 12; i < 40; i++ {
			cat.Table("ORD").Insert("c1", fmt.Sprintf("i%d", i), "r1", "s0")
		}
		wider := core.New(cat, core.Options{})
		for _, name := range []string{"ORD", "CUSTOMER"} {
			if _, err := wider.BuildIndex(name, name, nil, core.OrderProbConverge); err != nil {
				t.Fatal(err)
			}
		}
		rebuilt(t, o, pool, wider, kernel)
	})

	t.Run("node budget", func(t *testing.T) {
		probe := newOrders(t, core.Options{}, core.OrderProbConverge)
		nodes := probe.chk.KernelStats().Live
		// Room for the indices and for half as much again: a version that
		// shares little with the one before it does not fit beside it.
		o := newOrders(t, core.Options{NodeBudget: nodes + nodes/2}, core.OrderProbConverge)
		o.countsOnly = true
		pool, kernel := start(t, o)
		for i := 0; i < 450; i++ {
			o.batch(t, 2)
			o.chk.Store().Kernel().GC() // the primary must not trip over its own garbage
		}
		rebuilt(t, o, pool, o.chk, kernel)
	})
}

// A follower that reloads from its store republishes a recovered catalog
// whose version counters have nothing to do with the one before: equal
// counters must not let a predicate bound to the old index root answer for
// the new one.
func TestAdvanceDoesNotTrustTableVersions(t *testing.T) {
	a := newOrders(t, core.Options{}, core.OrderProbConverge)
	b := newOrders(t, core.Options{}, core.OrderProbConverge)
	for _, step := range []struct {
		o   *orders
		row []string
	}{{a, anomalies[1]}, {b, []string{"c4", "i3", "r0", "s2"}}} {
		if _, err := step.o.chk.Apply([]core.Update{{Table: "ORD", Op: core.UpdateInsert, Values: step.row}}); err != nil {
			t.Fatal(err)
		}
	}
	if va, vb := a.chk.Catalog().Table("ORD").Version(), b.chk.Catalog().Table("ORD").Version(); va != vb {
		t.Fatalf("the two catalogs are at ORD versions %d and %d: the test needs them equal", va, vb)
	}
	wantA, wantB := a.primaryImage(t, a.chk), b.primaryImage(t, b.chk)
	if slices.Equal(wantA.violated, wantB.violated) {
		t.Fatal("the two states decide every constraint alike: nothing would show a stale binding")
	}
	v, err := replica.NewVersion(a.chk, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := replica.New(1, v)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if got := a.serve(t, pool, 1); !sameImage(got.image, wantA) {
		t.Fatalf("replica %+v, primary %+v", got.image, wantA)
	}
	publish(t, pool, b.chk, 2)
	if got := b.serve(t, pool, 2); !sameImage(got.image, wantB) {
		t.Fatalf("after moving to the other catalog: replica %+v, its primary %+v", got.image, wantB)
	}
	if pool.Rebuilds() != 1 {
		t.Fatalf("rebuilds %d: the replica should have advanced in place", pool.Rebuilds())
	}
}

// The harness's meter (bench/client.go) reads every worker's counters before
// the run, after every update and at the end; a worker whose epoch moved
// between two reads contributes its whole count, one whose epoch did not the
// difference. That rule must keep reproducing the kernels' true step count
// now that a worker's kernel, and Kernel.Stats().Ops, outlive an epoch.
func TestPerEpochCountersAddUpUnderTheMetersRule(t *testing.T) {
	o := newOrders(t, core.Options{}, core.OrderProbConverge)
	v, err := replica.NewVersion(o.chk, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := replica.New(2, v)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	type mark struct{ epoch, ops uint64 }
	marks := map[int]mark{}
	var metered uint64
	read := func() {
		for _, ws := range pool.Stats() {
			if prev := marks[ws.Worker]; ws.Epoch != prev.epoch {
				metered += ws.Kernel.Ops
			} else {
				metered += ws.Kernel.Ops - prev.ops
			}
			marks[ws.Worker] = mark{ws.Epoch, ws.Kernel.Ops}
		}
	}
	var truth uint64
	check := func(chk *core.Checker, _ uint64) error {
		k := chk.Store().Kernel()
		before := k.Stats().Ops
		_, err := o.imageOf(chk, core.CheckOptions{NoSQLFallback: true})
		truth += k.Stats().Ops - before
		return err
	}
	read()
	for epoch := uint64(2); epoch < 14; epoch++ {
		for j := o.rng.Intn(4); j > 0; j-- { // 0..3 jobs: both workers adopt, or one, or none
			onPool(t, pool, check)
		}
		o.batch(t, 6)
		publish(t, pool, o.chk, epoch)
		read()
	}
	onPool(t, pool, check)
	read()
	if truth == 0 || metered != truth {
		t.Fatalf("the meter's rule counts %d kernel steps, the kernels ran %d", metered, truth)
	}
	if pool.Rebuilds() != 2 || pool.Swaps() < 6 {
		t.Fatalf("swaps %d, rebuilds %d: the test must exercise kernels that outlive an epoch", pool.Swaps(), pool.Rebuilds())
	}
}

// Once every worker has advanced past a version, nothing of it — not its
// frozen kernel, not its catalog, not a table or dictionary of it — is
// reachable from the pool: the advanced replicas read the new catalog only.
func TestAdvancedReplicasReleaseTheVersionTheyLeft(t *testing.T) {
	o := newOrders(t, core.Options{}, core.OrderProbConverge)
	v1, err := replica.NewVersion(o.chk, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := replica.New(2, v1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	o.serve(t, pool, 1)
	o.serve(t, pool, 1)
	// A catalog and its tables point at each other, and a cycle with a
	// finalizer in it is never collected: watch a dictionary instead, which
	// both reach and which points nowhere.
	collected := make(chan string, 2)
	runtime.SetFinalizer(v1, func(*replica.Version) { collected <- "version" })
	runtime.SetFinalizer(v1.Catalog().Table("ORD").ColumnDomain(0), func(*relation.Domain) { collected <- "dictionary" })
	v1 = nil

	o.batch(t, 8)
	publish(t, pool, o.chk, 2)
	o.serve(t, pool, 2)
	o.serve(t, pool, 2)
	if pool.Rebuilds() != 2 || pool.Swaps() != 4 {
		t.Fatalf("swaps %d, rebuilds %d: both workers should have advanced in place", pool.Swaps(), pool.Rebuilds())
	}
	seen := map[string]bool{}
	for i := 0; i < 50 && len(seen) < 2; i++ {
		runtime.GC()
		select {
		case what := <-collected:
			seen[what] = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if len(seen) < 2 {
		t.Fatalf("of epoch 1 only %v was collected after both workers advanced: an advanced replica still holds the rest", seen)
	}
}
