package replica_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/replica"
)

// projection_test.go covers the projections that travel with the index: a
// replica adopts the projections its primary maintains, so its first check of
// an FD after an update reads them instead of computing them, and the
// primary keeps a projection while some kernel reads it, and only then.

// fdConstraint returns the fixture's FD (customer -> region).
func (o *orders) fdConstraint(t *testing.T) logic.Constraint {
	t.Helper()
	for _, ct := range o.cts {
		if ct.Name == "cust_region" {
			return ct
		}
	}
	t.Fatal("the fixture has no cust_region")
	return logic.Constraint{}
}

// checkAdoptedFD checks the FD on rep, which has just adopted the primary's
// latest version, and wants the primary's verdict from the FD fast path at no
// kernel step.
func checkAdoptedFD(t *testing.T, o *orders, rep *core.Checker) {
	t.Helper()
	fd := o.fdConstraint(t)
	fast, adopted := rep.Stats().FDFastPath, rep.ProjectionReads().Adopted
	got := rep.CheckOneOpts(fd, core.CheckOptions{NoSQLFallback: true})
	want := o.chk.CheckOne(fd)
	if got.Err != nil || want.Err != nil {
		t.Fatalf("replica: %v, primary: %v", got.Err, want.Err)
	}
	if got.Violated != want.Violated {
		t.Fatalf("the replica says violated=%v, the primary %v", got.Violated, want.Violated)
	}
	if rep.Stats().FDFastPath != fast+1 {
		t.Fatal("the replica did not decide the FD by the fast path")
	}
	if got.Kernel.Ops != 0 {
		t.Fatalf("the replica's first FD check took %d kernel steps, want 0", got.Kernel.Ops)
	}
	if rep.ProjectionReads().Adopted != adopted+2 {
		t.Fatalf("%d reads answered by adopted projections, want the pairs and the groups", rep.ProjectionReads().Adopted-adopted)
	}
}

func TestAdvancedReplicaAdoptsTheFDProjections(t *testing.T) {
	o := newOrders(t, core.Options{}, core.OrderProbConverge)
	fd := o.fdConstraint(t)
	o.chk.CheckOne(fd) // the primary reads the FD's projections once
	v1, err := replica.NewVersion(o.chk, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := v1.Materialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := uint64(2); epoch < 8; epoch++ {
		o.batch(t, 1+o.rng.Intn(12))
		v, err := replica.NewVersion(o.chk, epoch)
		if err != nil {
			t.Fatal(err)
		}
		next, err := v.Materialize(rep)
		if err != nil {
			t.Fatal(err)
		}
		if next != rep {
			t.Fatalf("epoch %d: the replica was rebuilt, not advanced", epoch)
		}
		rep.Kernel().GC()
		checkAdoptedFD(t, o, rep)
	}
}

func TestFreshReplicaAdoptsTheFDProjections(t *testing.T) {
	o := newOrders(t, core.Options{}, core.OrderProbConverge)
	o.chk.CheckOne(o.fdConstraint(t))
	o.batch(t, 8)
	v, err := replica.NewVersion(o.chk, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := v.Materialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	checkAdoptedFD(t, o, rep)
}

// TestPrimaryKeepsWhatReplicasRead: a projection that only the pool's
// workers read survives on the primary through more updates than the table
// has rows, because the primary replays the workers' reads before each
// freeze; once no kernel reads it for that long, the primary drops it.
func TestPrimaryKeepsWhatReplicasRead(t *testing.T) {
	o := newOrders(t, core.Options{}, core.OrderProbConverge)
	fd := o.fdConstraint(t)
	o.chk.CheckOne(fd)
	held := func() (n int) {
		for _, s := range o.chk.SnapshotIndices() {
			if s.Name == "ORD" {
				n = len(s.Projections)
			}
		}
		return n
	}
	if held() != 2 {
		t.Fatalf("the primary holds %d projections of ORD after the FD check, want 2", held())
	}
	v, err := replica.NewVersion(o.chk, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := replica.New(1, v)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	rows := o.chk.Catalog().Table("ORD").Len()
	epoch := uint64(1)
	// round churns one row 10 times (20 updates, the table's size unchanged)
	// and publishes the result, replaying what the pool read since the last.
	round := func() {
		row := o.rows["ORD"][0]
		for i := 0; i < 10; i++ {
			if _, err := o.chk.Apply([]core.Update{
				{Table: "ORD", Op: core.UpdateDelete, Values: row},
				{Table: "ORD", Op: core.UpdateInsert, Values: row},
			}); err != nil {
				t.Fatal(err)
			}
		}
		o.chk.ReadProjections(pool.TakeDemand())
		epoch++
		publish(t, pool, o.chk, epoch)
	}
	for updates := 0; updates <= 2*rows; updates += 20 {
		onPool(t, pool, func(chk *core.Checker, _ uint64) error {
			chk.CheckOneOpts(fd, core.CheckOptions{NoSQLFallback: true})
			return nil
		})
		round()
	}
	if held() != 2 {
		t.Fatalf("after %d updates read by a replica only, the primary holds %d projections of ORD, want 2", 2*rows, held())
	}
	for updates := 0; updates <= rows; updates += 20 {
		round()
	}
	if held() != 0 {
		t.Fatalf("after %d updates no kernel read, the primary still holds %d projections of ORD", rows, held())
	}
}
