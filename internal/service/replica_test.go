package service_test

// replica_test.go exercises the replicated read path at the service level:
// routing of /check and /witnesses through the pool, epoch handoffs after
// /update, aggregated /statsz counters, and the -race concurrency guarantee
// with at least two replicas.

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/service"
)

func TestStatszReportsReplication(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Replicas: 2})

	// One check through the pool, one update (epoch handoff), one more check
	// so a worker demonstrably swaps to the new epoch.
	var resp service.CheckResponse
	if st := post(t, ts.URL+"/check", service.CheckRequest{}, &resp); st != http.StatusOK {
		t.Fatalf("check status %d", st)
	}
	var ur service.UpdateResponse
	if st := post(t, ts.URL+"/update", service.UpdateRequest{Updates: []service.UpdateTuple{
		{Table: "CUST", Op: "insert", Values: []string{"Oshawa", "905", "Ontario"}},
	}}, &ur); st != http.StatusOK || ur.Applied != 1 {
		t.Fatalf("update: status %d, %+v", st, ur)
	}
	if st := post(t, ts.URL+"/check", service.CheckRequest{}, &resp); st != http.StatusOK {
		t.Fatalf("check status %d", st)
	}
	var wresp service.WitnessResponse
	if st := post(t, ts.URL+"/witnesses", service.WitnessRequest{Constraint: "nj_codes"}, &wresp); st != http.StatusOK {
		t.Fatalf("witnesses status %d", st)
	}
	if wresp.Method != "bdd" || len(wresp.Witnesses) == 0 {
		t.Fatalf("witnesses should come off a replica's BDD: %+v", wresp)
	}

	var stats service.StatszResponse
	if st := get(t, ts.URL+"/statsz", &stats); st != http.StatusOK {
		t.Fatalf("statsz status %d", st)
	}
	repl := stats.Replication
	if repl.Replicas != 2 {
		t.Fatalf("replicas = %d, want 2", repl.Replicas)
	}
	if repl.Epoch < 2 {
		t.Fatalf("epoch = %d, want ≥ 2 after an update handoff", repl.Epoch)
	}
	if repl.ReplicaChecks < 2 || repl.ReplicaWitnesses < 1 {
		t.Fatalf("pool should have served the reads: %+v", repl)
	}
	if repl.Swaps < 1 {
		t.Fatalf("swaps = %d, want ≥ 1 (a worker must have materialized)", repl.Swaps)
	}
	if len(repl.Workers) != 2 {
		t.Fatalf("want 2 worker entries, got %+v", repl.Workers)
	}
	var jobs uint64
	var sawLatest bool
	for _, w := range repl.Workers {
		jobs += w.Jobs
		if w.Epoch == repl.Epoch {
			sawLatest = true
		}
		if w.Jobs > 0 && w.Kernel.LiveNodes < 2 {
			t.Fatalf("worker %d served jobs with an empty kernel: %+v", w.Worker, w)
		}
	}
	if jobs < 3 {
		t.Fatalf("worker jobs sum to %d, want ≥ 3 (2 checks + witnesses)", jobs)
	}
	if !sawLatest {
		t.Fatalf("no worker swapped to epoch %d: %+v", repl.Epoch, repl.Workers)
	}
	// The aggregate kernel view sums the primary and every replica.
	if stats.Kernel.LiveNodes < stats.PrimaryKernel.LiveNodes {
		t.Fatalf("aggregate kernel (%+v) smaller than primary (%+v)", stats.Kernel, stats.PrimaryKernel)
	}
	if stats.PrimaryKernel.LiveNodes <= 2 {
		t.Fatalf("primary kernel looks dead: %+v", stats.PrimaryKernel)
	}
	// Replica BDD decisions must show up in the aggregated checker counters:
	// 2 full checks × 2 constraints, all decided without SQL.
	if stats.Checker.BDDChecks < 4 {
		t.Fatalf("aggregated BDD checks = %d, want ≥ 4", stats.Checker.BDDChecks)
	}
}

// TestWitnessesOfAHoldingConstraintStayOnTheBDD: no witnesses and no error is
// the BDD's definite answer that the constraint holds. A replica serves it
// in one pool job, and neither form re-asks the primary or the SQL engine.
func TestWitnessesOfAHoldingConstraintStayOnTheBDD(t *testing.T) {
	for _, replicas := range []int{2, -1} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			_, ts := newTestServer(t, service.Options{Replicas: replicas})
			const sqlRuns = `cv_stage_duration_seconds_count{stage="sql"}`
			poolJobs := func() (primaryOps, jobs uint64) {
				var stats service.StatszResponse
				if st := get(t, ts.URL+"/statsz", &stats); st != http.StatusOK {
					t.Fatalf("statsz status %d", st)
				}
				for _, w := range stats.Replication.Workers {
					jobs += w.Jobs
				}
				return stats.PrimaryKernel.Ops, jobs
			}
			opsBefore, jobsBefore := poolJobs()
			sqlBefore := metricValue(t, ts.URL, sqlRuns)
			var resp service.WitnessResponse
			if st := post(t, ts.URL+"/witnesses", service.WitnessRequest{Constraint: "toronto_ontario"}, &resp); st != http.StatusOK {
				t.Fatalf("status %d", st)
			}
			if resp.Method != "bdd" || len(resp.Witnesses) != 0 {
				t.Fatalf("a holding constraint drew method %q and %d witnesses, want bdd and none", resp.Method, len(resp.Witnesses))
			}
			if sql := metricValue(t, ts.URL, sqlRuns); sql != sqlBefore {
				t.Fatalf("the SQL stage ran %v times for the request, want none", sql-sqlBefore)
			}
			if replicas < 0 {
				return
			}
			opsAfter, jobsAfter := poolJobs()
			if jobsAfter != jobsBefore+1 || opsAfter != opsBefore {
				t.Fatalf("the request took %d pool jobs and %d primary kernel steps, want one job and no primary work",
					jobsAfter-jobsBefore, opsAfter-opsBefore)
			}
		})
	}
}

func TestReplicationDisabled(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Replicas: -1})
	var resp service.CheckResponse
	if st := post(t, ts.URL+"/check", service.CheckRequest{}, &resp); st != http.StatusOK {
		t.Fatalf("check status %d", st)
	}
	if r := resultsByName(t, resp)["nj_codes"]; !r.Violated || r.Method != "bdd" {
		t.Fatalf("primary path must still serve checks: %+v", r)
	}
	var stats service.StatszResponse
	if st := get(t, ts.URL+"/statsz", &stats); st != http.StatusOK {
		t.Fatalf("statsz status %d", st)
	}
	if repl := stats.Replication; repl.Replicas != 0 || repl.ReplicaChecks != 0 {
		t.Fatalf("replication disabled but reported active: %+v", repl)
	}
	if stats.Kernel != stats.PrimaryKernel {
		t.Fatalf("without replicas the aggregate must equal the primary: %+v vs %+v",
			stats.Kernel, stats.PrimaryKernel)
	}
}

func TestReplicaReroutesBudgetFallbackToPrimary(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Replicas: 2})
	var resp service.CheckResponse
	st := post(t, ts.URL+"/check", service.CheckRequest{
		Constraints: []string{"nj_codes"},
		NodeBudget:  1,
	}, &resp)
	if st != http.StatusOK {
		t.Fatalf("status %d", st)
	}
	r := resultsByName(t, resp)["nj_codes"]
	if !r.FellBack || r.Method != "sql" || !r.Violated {
		t.Fatalf("want rerouted SQL fallback, got %+v", r)
	}
	var stats service.StatszResponse
	if st := get(t, ts.URL+"/statsz", &stats); st != http.StatusOK {
		t.Fatalf("statsz status %d", st)
	}
	if stats.Replication.Reroutes < 1 {
		t.Fatalf("reroutes = %d, want ≥ 1", stats.Replication.Reroutes)
	}
	if stats.Checker.SQLFallbacks < 1 {
		t.Fatalf("the primary must have run the SQL fallback: %+v", stats.Checker)
	}
}

// TestReplicatedReadYourWrites pins the publish-before-ack guarantee on the
// pool path: with two replicas, a check submitted after an update's ack
// must see the new epoch's data no matter which worker serves it — or, once
// one has, the verdict memo in front of them. The check goes through the
// Backend the moment the ack arrives, with no HTTP hop, and the table is
// large enough that a freeze takes milliseconds: an ack sent before the
// epoch is published leaves the reader on the previous version.
func TestReplicatedReadYourWrites(t *testing.T) {
	srv, _ := newCatalogServer(t, wideCatalog(t, 20000), testRules, service.Options{Replicas: 2})
	cts, registered, err := srv.Resolve([]string{"toronto_ontario"}, "")
	if err != nil {
		t.Fatal(err)
	}
	toggle := []string{"Toronto", "416", "NJ"} // violates toronto_ontario
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		op, want := core.UpdateInsert, true
		if i%2 == 1 {
			op, want = core.UpdateDelete, false
		}
		if applied, err := srv.Update(ctx, []core.Update{{Table: "CUST", Op: op, Values: toggle}}, nil); err != nil || applied != 1 {
			t.Fatalf("round %d %s: applied %d, %v", i, op, applied, err)
		}
		// Every reader must observe the acked state, not just the first.
		for rep := 0; rep < 4; rep++ {
			results, _, err := srv.Check(ctx, cts, registered, 0, 0, nil)
			if err != nil {
				t.Fatalf("round %d check: %v", i, err)
			}
			r := results[0]
			if r.Violated != want {
				t.Fatalf("round %d: acked %s invisible to check (violated=%v, want %v)",
					i, op, r.Violated, want)
			}
			if r.Method != "bdd" {
				t.Fatalf("round %d: replica check fell off the BDD path: %+v", i, r)
			}
		}
	}
}

// wideCatalog is a CUST table of n rows that recombine 400 cities, 400 area
// codes and 40 states, with every Toronto row in Ontario: under testRules,
// nj_codes is violated and toronto_ontario holds.
func wideCatalog(t *testing.T, n int) *relation.Catalog {
	t.Helper()
	cat := relation.NewCatalog()
	cust, err := cat.CreateTable("CUST", []relation.Column{
		{Name: "city"}, {Name: "areacode"}, {Name: "state"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cust.Insert("Toronto", "416", "Ontario")
	cust.Insert("Newark", "416", "NJ")
	rng := rand.New(rand.NewSource(1))
	for cust.Len() < n {
		city, state := fmt.Sprintf("city%d", rng.Intn(400)), fmt.Sprintf("state%d", rng.Intn(40))
		if city == "city0" {
			city, state = "Toronto", "Ontario"
		}
		cust.Insert(city, fmt.Sprint(200+rng.Intn(400)), state)
	}
	return cat
}

// TestConcurrentReplicatedChecksAndUpdates is the service half of the -race
// acceptance run: concurrent /check and /witnesses traffic served by a
// 2-replica pool while updates force epoch handoffs. The churned tuples are
// Ontario rows, so nj_codes stays violated and toronto_ontario stays
// satisfied at every epoch a reader can observe.
func TestConcurrentReplicatedChecksAndUpdates(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Replicas: 2, QueueDepth: 8})
	const (
		checkers = 6
		updaters = 4
		iters    = 10
	)
	var wg sync.WaitGroup
	errc := make(chan error, checkers+updaters)
	report := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}
	for g := 0; g < checkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if g%3 == 2 {
					var wresp service.WitnessResponse
					st := post(t, ts.URL+"/witnesses", service.WitnessRequest{Constraint: "nj_codes"}, &wresp)
					if st != http.StatusOK || len(wresp.Witnesses) == 0 {
						report("witness reader %d: status %d, %+v", g, st, wresp)
						return
					}
					continue
				}
				var resp service.CheckResponse
				if st := post(t, ts.URL+"/check", service.CheckRequest{}, &resp); st != http.StatusOK {
					report("checker %d: status %d", g, st)
					return
				}
				for _, r := range resp.Results {
					if r.Error != "" {
						report("checker %d: %s errored: %s", g, r.Name, r.Error)
						return
					}
					if r.Name == "nj_codes" && !r.Violated {
						report("checker %d: nj_codes not violated", g)
						return
					}
					if r.Name == "toronto_ontario" && r.Violated {
						report("checker %d: toronto_ontario violated", g)
						return
					}
				}
			}
		}(g)
	}
	churn := [][]string{
		{"Oshawa", "905", "Ontario"},
		{"Toronto", "647", "Ontario"},
	}
	for g := 0; g < updaters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			row := churn[g%len(churn)]
			for i := 0; i < iters; i++ {
				for _, op := range []string{"insert", "delete"} {
					var ur service.UpdateResponse
					st := post(t, ts.URL+"/update", service.UpdateRequest{Updates: []service.UpdateTuple{
						{Table: "CUST", Op: op, Values: row},
					}}, &ur)
					if st != http.StatusOK || ur.Applied != 1 {
						report("updater %d: %s status %d, %+v", g, op, st, ur)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	var stats service.StatszResponse
	if st := get(t, ts.URL+"/statsz", &stats); st != http.StatusOK {
		t.Fatalf("statsz status %d", st)
	}
	repl := stats.Replication
	if repl.Replicas != 2 {
		t.Fatalf("replicas = %d, want 2", repl.Replicas)
	}
	// Every update batch published a fresh version: the epoch must have
	// moved well past the bootstrap version.
	if repl.Epoch < 2 {
		t.Fatalf("epoch = %d: no handoff happened under update load", repl.Epoch)
	}
	if repl.ReplicaChecks == 0 && repl.ReplicaWitnesses == 0 {
		t.Fatalf("no read was served by the pool: %+v", repl)
	}
	if stats.Tables[0].Rows != 5 {
		t.Fatalf("table should be back at 5 seed rows, got %d", stats.Tables[0].Rows)
	}
	t.Logf("epoch %d, swaps %d, replica checks %d, witnesses %d, reroutes %d",
		repl.Epoch, repl.Swaps, repl.ReplicaChecks, repl.ReplicaWitnesses, repl.Reroutes)
}

// TestAdoptionIsTracedAndCountedPerEpoch: the job during which a worker
// adopts a version carries an "adopt" span, with the collection that ends an
// in-place adoption as a "collect" span inside it; /statsz says how many
// adoptions built a replica; and a worker's kernel counters still count from
// its adoption, so the harness's rule — a worker whose epoch moved between
// two reads of /statsz contributes its whole count — adds up to exactly the
// kernel steps the traced replies report, although the kernel and its own
// counter now outlive the epoch.
func TestAdoptionIsTracedAndCountedPerEpoch(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Replicas: 2})
	// Ad-hoc text is never memoised: every check reaches a replica's kernel.
	const adhoc = `constraint codes: forall c, a: CUST(c, a, "NJ") => a in {"201", "973", "908"}.
constraint one_state: forall c, a, s1, s2: CUST(c, a, s1) and CUST(c, _, s2) => s1 = s2.`

	type mark struct{ epoch, ops uint64 }
	marks := map[int]mark{}
	var metered uint64
	read := func() service.ReplicationStats {
		repl := statsOf(t, ts.URL).Replication
		for _, w := range repl.Workers {
			if prev := marks[w.Worker]; w.Epoch != prev.epoch {
				metered += w.Kernel.Ops
			} else {
				metered += w.Kernel.Ops - prev.ops
			}
			marks[w.Worker] = mark{w.Epoch, w.Kernel.Ops}
		}
		return repl
	}
	var traced uint64
	check := func() map[string][]service.TraceSpan {
		t.Helper()
		var resp service.CheckResponse
		if st := post(t, ts.URL+"/check?trace=1", service.CheckRequest{Text: adhoc}, &resp); st != http.StatusOK || resp.Trace == nil {
			t.Fatalf("traced check: status %d, %+v", st, resp)
		}
		for _, sp := range resp.Trace.Spans {
			if sp.Kernel != nil && strings.HasPrefix(sp.Name, "eval:") {
				traced += sp.Kernel.Ops
			}
		}
		return spansByName(resp.Trace)
	}
	inside := func(inner, outer service.TraceSpan) bool {
		return inner.StartNS >= outer.StartNS && inner.StartNS+inner.DurationNS <= outer.StartNS+outer.DurationNS
	}

	read()
	first := check()
	if len(first["adopt"]) != 1 || len(first["collect"]) != 0 {
		t.Fatalf("a worker's first job builds its replica: want an adopt span and no collect span, got %+v", first)
	}
	for round := 0; round < 6; round++ {
		op := "insert"
		if round%2 == 1 {
			op = "delete"
		}
		if st, ur := update(t, ts.URL, service.UpdateTuple{Table: "CUST", Op: op, Values: []string{"Toronto", "416", "NJ"}}); st != http.StatusOK || ur.Applied != 1 {
			t.Fatalf("update: status %d, %+v", st, ur)
		}
		read()
		for j := 0; j <= round%3; j++ { // one, two or three checks: not every worker adopts every epoch
			spans := check()
			if round == 0 || j > 1 {
				continue // the second worker's first job, or a worker already at this epoch
			}
			if len(spans["adopt"]) != 1 || len(spans["collect"]) != 1 || len(spans["queue_wait"]) != 1 {
				t.Fatalf("round %d check %d: want one adopt, one collect and one queue_wait span, got %+v", round, j, spans)
			}
			adopt, collect, wait := spans["adopt"][0], spans["collect"][0], spans["queue_wait"][0]
			if !inside(collect, adopt) || !inside(adopt, wait) {
				t.Fatalf("collect %+v should lie inside adopt %+v inside queue_wait %+v", collect, adopt, wait)
			}
			if adopt.Kernel == nil || adopt.Kernel.GCRuns != 1 {
				t.Fatalf("the adopt span should carry the kernel's movement, its collection included: %+v", adopt.Kernel)
			}
		}
	}
	repl := read()
	if traced == 0 || metered != traced {
		t.Fatalf("/statsz read by the harness's rule moved by %d kernel steps; the traced replies report %d", metered, traced)
	}
	if repl.Rebuilds != 2 || repl.Swaps <= repl.Rebuilds {
		t.Fatalf("swaps %d, rebuilds %d: want one rebuild per worker and in-place handoffs after", repl.Swaps, repl.Rebuilds)
	}
	if body := scrapeMetrics(t, ts.URL); !strings.Contains(body, "cv_replica_rebuilds_total 2") {
		t.Fatalf("/metricsz does not report the two rebuilds:\n%s", body)
	}
}

// TestStatszCountsTheProjectionsReplicasDemand: a replica's FD check reaches
// the primary as demand at the next freeze, /statsz shows the primary
// carrying the FD's projections, and the replica's first check after the
// update reads them at no kernel step.
func TestStatszCountsTheProjectionsReplicasDemand(t *testing.T) {
	_, ts := newFixtureServer(t, `
		constraint city_state:
		    forall c, a, s, a2, s2: CUST(c, a, s) and CUST(c, a2, s2) => s = s2.
	`, service.Options{Replicas: 1})
	projections := func() int {
		t.Helper()
		var stats service.StatszResponse
		if st := get(t, ts.URL+"/statsz", &stats); st != http.StatusOK || len(stats.Indices) != 1 {
			t.Fatalf("statsz status %d, indices %+v", st, stats.Indices)
		}
		return stats.Indices[0].Projections
	}
	var resp service.CheckResponse
	if st := post(t, ts.URL+"/check", service.CheckRequest{}, &resp); st != http.StatusOK {
		t.Fatalf("check status %d", st)
	}
	if n := projections(); n != 0 {
		t.Fatalf("before any freeze the primary carries %d projections, want 0", n)
	}
	var ur service.UpdateResponse
	if st := post(t, ts.URL+"/update", service.UpdateRequest{Updates: []service.UpdateTuple{
		{Table: "CUST", Op: "insert", Values: []string{"Oshawa", "905", "Ontario"}},
	}}, &ur); st != http.StatusOK || ur.Applied != 1 {
		t.Fatalf("update: status %d, %+v", st, ur)
	}
	if n := projections(); n != 2 {
		t.Fatalf("after the replica's FD check and a freeze the primary carries %d projections, want the pairs and the groups", n)
	}
	if st := post(t, ts.URL+"/check?trace=1", service.CheckRequest{}, &resp); st != http.StatusOK || resp.Trace == nil {
		t.Fatalf("traced check status %d", st)
	}
	evals := 0
	for _, sp := range resp.Trace.Spans {
		if sp.Name != "eval:city_state" {
			continue
		}
		evals++
		if sp.Kernel != nil && sp.Kernel.Ops != 0 {
			t.Fatalf("the replica's FD check after the update took %d kernel steps, want 0", sp.Kernel.Ops)
		}
	}
	if evals != 1 {
		t.Fatalf("%d eval:city_state spans, want 1: %+v", evals, resp.Trace.Spans)
	}
}

// metricValue scrapes /metricsz and returns the summed value of the metric
// samples whose name (with any label set) matches name.
func metricValue(t *testing.T, baseURL, name string) float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	total, found := 0.0, false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest != "" && rest[0] != ' ' && rest[0] != '{' {
			continue // a longer name sharing the prefix
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		total += v
		found = true
	}
	if !found {
		t.Fatalf("metric %s not found on /metricsz", name)
	}
	return total
}
