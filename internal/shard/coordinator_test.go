package shard_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/shard"
)

const fixtureRules = `
	constraint state_fd:
	    forall c, a, s1, s2: CUST(c, a, s1) and SUPP(c, s2) => s1 = s2.
	constraint supp_city_known:
	    forall c, s: SUPP(c, s) => exists a, s2: CUST(c, a, s2).
	constraint nj_exists:
	    exists c, a: CUST(c, a, "NJ").
	constraint area_known:
	    forall a: AREA(a) => a in {"416", "647", "905", "973"}.
	constraint toronto_ontario:
	    forall a, s: CUST("Toronto", a, s) => s = "Ontario".
	constraint area_covered:
	    forall c, a, s: AREA(a) => CUST(c, a, s).
`

func mustParse(t testing.TB, text string) []logic.Constraint {
	t.Helper()
	cts, err := logic.ParseConstraints(text)
	if err != nil {
		t.Fatal(err)
	}
	return cts
}

// refChecker builds the single-kernel reference over its own copy of the
// fixture (same seed), with every table indexed.
func refChecker(t testing.TB, cat *relation.Catalog) *core.Checker {
	t.Helper()
	chk := core.New(cat, core.Options{})
	for _, tb := range cat.Tables() {
		if _, err := chk.BuildIndex(tb.Name(), tb.Name(), nil, core.OrderSchema); err != nil {
			t.Fatal(err)
		}
	}
	return chk
}

func witnessSet(ws []core.Witness) map[string]bool {
	out := make(map[string]bool, len(ws))
	for _, w := range ws {
		pairs := make([]string, len(w.Vars))
		for i := range w.Vars {
			pairs[i] = logic.BaseName(w.Vars[i]) + "=" + w.Values[i]
		}
		sort.Strings(pairs)
		out[strings.Join(pairs, ",")] = true
	}
	return out
}

// assertAgrees compares the coordinator's verdicts and witness sets with
// the single-kernel reference for every registered constraint.
func assertAgrees(t *testing.T, coord *shard.Coordinator, ref *core.Checker, cts []logic.Constraint, step string) {
	t.Helper()
	ctx := context.Background()
	outs, err := coord.Check(ctx, cts, 0, nil)
	if err != nil {
		t.Fatalf("%s: coordinator check: %v", step, err)
	}
	for i, ct := range cts {
		want := ref.CheckOne(ct)
		if want.Err != nil {
			t.Fatalf("%s: reference %s: %v", step, ct.Name, want.Err)
		}
		if outs[i].Err != "" {
			t.Fatalf("%s: coordinator %s: %s", step, ct.Name, outs[i].Err)
		}
		if outs[i].Violated != want.Violated {
			t.Errorf("%s: %s: coordinator violated=%v, reference %v (method %s)",
				step, ct.Name, outs[i].Violated, want.Violated, outs[i].Method)
		}
		rw := logic.Rewrite(ct.F, logic.DefaultRewriteOptions())
		if rw.Mode != logic.CheckValidity || !want.Violated {
			continue
		}
		wantWs, err := ref.ViolationWitnesses(ct, 10000)
		if err != nil {
			t.Fatalf("%s: reference witnesses %s: %v", step, ct.Name, err)
		}
		gotWs, _, err := coord.Witnesses(ctx, ct, 10000, 0, nil)
		if err != nil {
			t.Fatalf("%s: coordinator witnesses %s: %v", step, ct.Name, err)
		}
		wantSet, gotSet := witnessSet(wantWs), witnessSet(gotWs)
		if len(wantSet) != len(gotSet) {
			t.Errorf("%s: %s: witness count %d vs reference %d", step, ct.Name, len(gotSet), len(wantSet))
			continue
		}
		for k := range wantSet {
			if !gotSet[k] {
				t.Errorf("%s: %s: reference witness %q missing from coordinator", step, ct.Name, k)
				break
			}
		}
	}
}

func TestCoordinatorAgreesWithSingleKernel(t *testing.T) {
	for _, nShards := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprintf("shards=%d", nShards), func(t *testing.T) {
			coordCat := fixtureCat(t)
			populate(coordCat, rand.New(rand.NewSource(42)), 400)
			refCat := fixtureCat(t)
			populate(refCat, rand.New(rand.NewSource(42)), 400)

			cts := mustParse(t, fixtureRules)
			coord, err := shard.NewInProcess(coordCat, cts, newPartitioner(t, coordCat, nShards), shard.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			ref := refChecker(t, refCat)

			assertAgrees(t, coord, ref, cts, "initial")

			// Mutate through both paths and re-check: inserts and deletes on
			// partitioned and broadcast tables, crossing shard boundaries.
			rng := rand.New(rand.NewSource(99))
			for batch := 0; batch < 6; batch++ {
				var ups []core.Update
				for i := 0; i < 10; i++ {
					switch rng.Intn(4) {
					case 0:
						ups = append(ups, core.Update{Table: "CUST", Op: core.UpdateInsert,
							Values: []string{cities[rng.Intn(len(cities))], codes[rng.Intn(len(codes))], states[rng.Intn(len(states))]}})
					case 1:
						ups = append(ups, core.Update{Table: "SUPP", Op: core.UpdateInsert,
							Values: []string{cities[rng.Intn(len(cities))], states[rng.Intn(len(states))]}})
					case 2:
						// Delete an existing CUST row from the reference's
						// current state so both sides accept it.
						tb := refCat.Table("CUST")
						if tb.Len() == 0 {
							continue
						}
						r := rng.Intn(tb.Len())
						ups = append(ups, core.Update{Table: "CUST", Op: core.UpdateDelete,
							Values: []string{tb.Value(r, 0), tb.Value(r, 1), tb.Value(r, 2)}})
					case 3:
						ups = append(ups, core.Update{Table: "AREA", Op: core.UpdateInsert,
							Values: []string{codes[rng.Intn(len(codes))]}})
					}
				}
				if len(ups) == 0 {
					continue
				}
				if _, err := ref.Apply(ups); err != nil {
					t.Fatalf("batch %d: reference apply: %v", batch, err)
				}
				applied, _, err := coord.Update(context.Background(), ups, nil)
				if err != nil {
					t.Fatalf("batch %d: coordinator update: %v", batch, err)
				}
				if applied != len(ups) {
					t.Fatalf("batch %d: applied %d of %d", batch, applied, len(ups))
				}
				assertAgrees(t, coord, ref, cts, fmt.Sprintf("batch %d", batch))
			}
			if got := coord.Epoch(); got < 2 {
				t.Fatalf("epoch %d after updates", got)
			}
		})
	}
}

func TestCoordinatorAdHocConstraints(t *testing.T) {
	coordCat := fixtureCat(t)
	populate(coordCat, rand.New(rand.NewSource(5)), 200)
	refCat := fixtureCat(t)
	populate(refCat, rand.New(rand.NewSource(5)), 200)

	coord, err := shard.NewInProcess(coordCat, nil, newPartitioner(t, coordCat, 3), shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ref := refChecker(t, refCat)

	// Never-registered constraints take the same plan/merge path.
	adhoc := mustParse(t, `
		constraint q1: forall c, s: SUPP(c, s) => exists a, s2: CUST(c, a, s2).
		constraint q2: exists c: SUPP(c, "NJ").
		constraint q3: forall c, a, s: CUST(c, a, s) => a in {"416", "647"}.
	`)
	assertAgrees(t, coord, ref, adhoc, "adhoc")
}

// failingWorker simulates a crashed shard daemon.
type failingWorker struct{ shard int }

func (f *failingWorker) Shard() int { return f.shard }
func (f *failingWorker) Check(context.Context, []logic.Constraint, int) ([]shard.CheckOutcome, error) {
	return nil, errors.New("connection refused")
}
func (f *failingWorker) Witnesses(context.Context, logic.Constraint, int, int) ([]core.Witness, error) {
	return nil, errors.New("connection refused")
}
func (f *failingWorker) Update(context.Context, []core.Update) (int, error) {
	return 0, errors.New("connection refused")
}
func (f *failingWorker) Status() shard.WorkerStatus {
	return shard.WorkerStatus{Shard: f.shard, Up: false}
}
func (f *failingWorker) Close() {}

func TestCoordinatorWorkerDownDegradesToError(t *testing.T) {
	cat := fixtureCat(t)
	populate(cat, rand.New(rand.NewSource(3)), 100)
	cts := mustParse(t, fixtureRules)
	part := newPartitioner(t, cat, 2)

	// One real in-process shard, one dead worker.
	parts := part.Split(cat.Clone())
	live, err := shard.NewInProcess(parts[0], nil, newPartitioner(t, parts[0], 1), shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	coord, err := shard.NewCoordinator(cat, cts, part,
		[]shard.Worker{live.Workers()[0], &failingWorker{shard: 1}}, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}

	_, err = coord.Check(context.Background(), cts[:1], 0, nil)
	var we *shard.WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("check error = %v, want *WorkerError", err)
	}
	if we.Shard != 1 {
		t.Fatalf("failure attributed to shard %d, want 1", we.Shard)
	}
	before := coord.Epoch()
	_, _, err = coord.Update(context.Background(),
		[]core.Update{{Table: "AREA", Op: core.UpdateInsert, Values: []string{"999"}}}, nil)
	if !errors.As(err, &we) {
		t.Fatalf("update error = %v, want *WorkerError", err)
	}
	if coord.Epoch() != before {
		t.Fatal("epoch advanced despite failed fan-out")
	}
}

func TestCoordinatorBadUpdateRejectedAtomically(t *testing.T) {
	cat := fixtureCat(t)
	populate(cat, rand.New(rand.NewSource(3)), 50)
	coord, err := shard.NewInProcess(cat, nil, newPartitioner(t, cat, 2), shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Routing validation must reject the whole batch before any shard
	// applies the leading (valid) tuple: the probe's verdict is unchanged.
	probe := mustParse(t, `constraint q: exists a: CUST("Newark", a, "NJ").`)
	beforeOuts, err := coord.Check(context.Background(), probe, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	beforeEpoch := coord.Epoch()
	_, _, err = coord.Update(context.Background(), []core.Update{
		{Table: "CUST", Op: core.UpdateInsert, Values: []string{"Newark", "973", "NJ"}},
		{Table: "GHOST", Op: core.UpdateInsert, Values: []string{"x"}},
	}, nil)
	if err == nil {
		t.Fatal("unknown table accepted")
	}
	if coord.Epoch() != beforeEpoch {
		t.Fatal("epoch advanced on rejected batch")
	}
	afterOuts, err := coord.Check(context.Background(), probe, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if beforeOuts[0].Violated != afterOuts[0].Violated {
		t.Fatal("rejected batch leaked its first tuple into a shard")
	}
}

// absentTuples returns n CUST tuples in state NY, built from values the
// fixture's dictionaries already hold, that cat does not contain.
func absentTuples(cat *relation.Catalog, n int) [][]string {
	held := map[string]bool{}
	tb := cat.Table("CUST")
	for r := 0; r < tb.Len(); r++ {
		held[tb.Value(r, 0)+"|"+tb.Value(r, 1)+"|"+tb.Value(r, 2)] = true
	}
	var out [][]string
	for _, c := range cities {
		for _, a := range codes[:6] {
			if len(out) < n && !held[c+"|"+a+"|NY"] {
				out = append(out, []string{c, a, "NY"})
			}
		}
	}
	return out
}

// TestCoordinatorUpdatesSerialise sends single-tuple batches that insert and
// delete the same few tuples from several goroutines at once. A delete of a
// tuple the table does not hold is refused, so the order in which batches
// apply decides which are refused; the shards and the residual must see one
// order. Afterwards a local-planned and a residual-planned constraint over
// the same condition agree on verdict and witnesses, and no batch reports a
// divergence of the residual from the shards.
func TestCoordinatorUpdatesSerialise(t *testing.T) {
	cts := mustParse(t, `
		constraint ny_local:
		    forall c, a: CUST(c, a, "NY") => a in {"716", "518"}.
		constraint ny_residual:
		    forall c, a: CUST(c, a, "NY") =>
		        a in {"716", "518"} or (CUST("Toronto", a, "NY") and not CUST("Toronto", a, "NY")).
	`)
	cat := fixtureCat(t)
	populate(cat, rand.New(rand.NewSource(8)), 200)
	tuples := absentTuples(cat, 3)
	if len(tuples) < 3 {
		t.Fatalf("fixture leaves only %d absent NY tuples", len(tuples))
	}
	coord, err := shard.NewInProcess(cat, cts, newPartitioner(t, cat, 2), shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if local, res := coord.PlanFor(cts[0]).Kind, coord.PlanFor(cts[1]).Kind; local != shard.PlanLocal || res != shard.PlanResidual {
		t.Fatalf("plans %v and %v, want local and residual", local, res)
	}

	const goroutines, batches = 4, 100
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*batches)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				op := core.UpdateInsert
				if rng.Intn(2) == 0 {
					op = core.UpdateDelete
				}
				up := core.Update{Table: "CUST", Op: op, Values: tuples[rng.Intn(len(tuples))]}
				if _, _, err := coord.Update(context.Background(), []core.Update{up}, nil); err != nil {
					errs <- err
				}
			}
		}(rand.New(rand.NewSource(int64(g))))
	}
	wg.Wait()
	close(errs)
	refused := 0
	for err := range errs {
		if strings.Contains(err.Error(), "diverged") {
			t.Errorf("an update diverged the residual from the shards: %v", err)
		}
		refused++
	}
	t.Logf("%d of %d batches refused", refused, goroutines*batches)

	outs, err := coord.Check(context.Background(), cts, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err != "" || outs[1].Err != "" || outs[0].Violated != outs[1].Violated {
		t.Fatalf("local %+v and residual %+v disagree", outs[0], outs[1])
	}
	var sets [2]map[string]bool
	for i, ct := range cts {
		ws, _, err := coord.Witnesses(context.Background(), ct, 10000, 0, nil)
		if err != nil {
			t.Fatalf("%s witnesses: %v", ct.Name, err)
		}
		sets[i] = witnessSet(ws)
	}
	if len(sets[0]) != len(sets[1]) {
		t.Fatalf("local has %d witnesses, residual %d", len(sets[0]), len(sets[1]))
	}
	for w := range sets[0] {
		if !sets[1][w] {
			t.Fatalf("local witness %s is missing from the residual's", w)
		}
	}
}

// TestCoordinatorUpdatesRaceClose closes the coordinator while several
// goroutines send broadcast updates, in a few rounds. Each update either
// applies on every shard and the residual or is refused as a whole
// (ErrShuttingDown or ErrBusy): none may reach a closed shard or a closed
// residual.
func TestCoordinatorUpdatesRaceClose(t *testing.T) {
	for round := 0; round < 5; round++ {
		updatesRaceClose(t, int64(round))
	}
}

func updatesRaceClose(t *testing.T, seed int64) {
	cat := fixtureCat(t)
	populate(cat, rand.New(rand.NewSource(seed)), 100)
	coord, err := shard.NewInProcess(cat, mustParse(t, fixtureRules), newPartitioner(t, cat, 2), shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close() // on a failed wait; Close is idempotent
	const goroutines = 4
	var acked atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			up := []core.Update{{Table: "AREA", Op: core.UpdateInsert, Values: []string{codes[0]}}}
			for {
				_, _, err := coord.Update(context.Background(), up, nil)
				if err == nil {
					acked.Add(1)
					continue
				}
				var we *shard.WorkerError
				if errors.As(err, &we) || strings.Contains(err.Error(), "diverged") ||
					!(errors.Is(err, service.ErrShuttingDown) || errors.Is(err, service.ErrBusy)) {
					t.Errorf("seed %d: update during Close: %v", seed, err)
				}
				return
			}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); coord.Epoch() < 5; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no update was acknowledged")
		}
	}
	coord.Close()
	wg.Wait()
	if want := coord.Epoch() - 1; acked.Load() != want {
		t.Errorf("seed %d: %d updates acknowledged, epoch says %d", seed, acked.Load(), want)
	}
	for _, w := range coord.Workers() {
		if got := w.Status().Updates; got != acked.Load() {
			t.Errorf("seed %d: shard %d applied %d tuples, %d were acknowledged", seed, w.Shard(), got, acked.Load())
		}
	}
}
