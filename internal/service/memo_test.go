package service_test

// memo_test.go pins the verdict memo's contract at the service level: what a
// hit costs (nothing, on any kernel), what invalidates (a moved table
// version, and only that), what is never stored, who bypasses, and — under
// -race, with readers hammering a writer — that a reply still holds at one
// version, names it, and reflects every acknowledged write.

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/store"
)

// memoPaths are the two dispatch paths a live check takes: the replica pool
// with the memo at its front door, and the primary worker with replication
// off.
var memoPaths = []struct {
	name     string
	replicas int
}{{"pool", 2}, {"primary", -1}}

func statsOf(t *testing.T, url string) service.StatszResponse {
	t.Helper()
	var stats service.StatszResponse
	if st := get(t, url+"/statsz", &stats); st != http.StatusOK {
		t.Fatalf("statsz status %d", st)
	}
	return stats
}

// checkNamed posts a check of the named registered constraints (all when
// none is named) and returns the reply with how many memo hits and misses it
// caused.
func checkNamed(t *testing.T, url string, req service.CheckRequest) (resp service.CheckResponse, hits, misses uint64) {
	t.Helper()
	before := statsOf(t, url).Checker
	if st := post(t, url+"/check", req, &resp); st != http.StatusOK {
		t.Fatalf("check status %d", st)
	}
	after := statsOf(t, url).Checker
	return resp, after.MemoHits - before.MemoHits, after.MemoMisses - before.MemoMisses
}

func update(t *testing.T, url string, ups ...service.UpdateTuple) (int, service.UpdateResponse) {
	t.Helper()
	var ur service.UpdateResponse
	st := post(t, url+"/update", service.UpdateRequest{Updates: ups}, &ur)
	return st, ur
}

// kernels lists every kernel's counters: the primary's, then each replica's.
func kernels(stats service.StatszResponse) []service.KernelStats {
	out := []service.KernelStats{stats.PrimaryKernel}
	for _, w := range stats.Replication.Workers {
		out = append(out, w.Kernel)
	}
	return out
}

func TestMemoMissThenHit(t *testing.T) {
	for _, path := range memoPaths {
		t.Run(path.name, func(t *testing.T) {
			_, ts := newTestServer(t, service.Options{Replicas: path.replicas})
			first, hits, misses := checkNamed(t, ts.URL, service.CheckRequest{})
			if hits != 0 || misses != 2 {
				t.Fatalf("first check: %d hits, %d misses; want 0, 2", hits, misses)
			}
			before := statsOf(t, ts.URL)
			second, hits, misses := checkNamed(t, ts.URL, service.CheckRequest{})
			if hits != 2 || misses != 0 {
				t.Fatalf("second check: %d hits, %d misses; want 2, 0", hits, misses)
			}
			after := statsOf(t, ts.URL)
			bk, ak := kernels(before), kernels(after)
			for i := range bk {
				if bk[i] != ak[i] {
					t.Errorf("kernel %d moved under a memo hit:\n before %+v\n after  %+v", i, bk[i], ak[i])
				}
			}
			for i, r := range second.Results {
				f := first.Results[i]
				if r.Name != f.Name || r.Violated != f.Violated || r.Method != "bdd" || r.FellBack || r.Error != "" {
					t.Errorf("hit %+v differs from the verdict it memoises %+v", r, f)
				}
				if r.DurationNS != 0 {
					t.Errorf("%s: a hit evaluates nothing, yet reports duration_ns %d", r.Name, r.DurationNS)
				}
			}
			// The trace tells the two apart: after an update, a lookup that
			// leaves everything to evaluation, then a lookup and nothing else
			// (on the primary path the job still waited for the worker).
			update(t, ts.URL, service.UpdateTuple{Table: "CUST", Op: "insert", Values: []string{"Oshawa", "905", "Ontario"}})
			for i, want := range []service.TraceSpan{{Misses: 2}, {Hits: 2}} {
				var traced service.CheckResponse
				if st := post(t, ts.URL+"/check?trace=1", service.CheckRequest{}, &traced); st != http.StatusOK {
					t.Fatalf("traced check status %d", st)
				}
				byName := spansByName(traced.Trace)
				if m := byName["memo"]; len(m) != 1 || m[0].Hits != want.Hits || m[0].Misses != want.Misses {
					t.Errorf("traced check %d: memo spans %+v, want one with %d hits, %d misses", i, m, want.Hits, want.Misses)
				}
				evals := len(byName["eval:nj_codes"]) + len(byName["eval:toronto_ontario"])
				if wantEvals := want.Misses; evals != wantEvals {
					t.Errorf("traced check %d: %d eval spans, want %d: %+v", i, evals, wantEvals, traced.Trace.Spans)
				}
				if want.Hits == 2 && path.replicas > 0 && len(traced.Trace.Spans) != 1 {
					t.Errorf("a full hit at the pool's front door has spans besides memo: %+v", traced.Trace.Spans)
				}
			}
			if before.Checker.BDDChecks != after.Checker.BDDChecks {
				t.Errorf("a hit was counted as a BDD decision: %d -> %d", before.Checker.BDDChecks, after.Checker.BDDChecks)
			}
			if want := before.Requests.Checks + 1; after.Requests.Checks != want {
				t.Errorf("requests.checks = %d, want %d: a hit is still a request", after.Requests.Checks, want)
			}
			if path.replicas > 0 {
				if want := before.Replication.ReplicaChecks + 1; after.Replication.ReplicaChecks != want {
					t.Errorf("replica_checks = %d, want %d", after.Replication.ReplicaChecks, want)
				}
				for i, w := range after.Replication.Workers {
					if w.Jobs != before.Replication.Workers[i].Jobs {
						t.Errorf("worker %d ran a job for a full hit", w.Worker)
					}
				}
			}
		})
	}
}

func TestMemoFollowsUpdates(t *testing.T) {
	for _, path := range memoPaths {
		t.Run(path.name, func(t *testing.T) {
			_, ts := newTestServer(t, service.Options{Replicas: path.replicas})
			verdict := func(resp service.CheckResponse) bool {
				return resultsByName(t, resp)["toronto_ontario"].Violated
			}
			resp, _, _ := checkNamed(t, ts.URL, service.CheckRequest{})
			if verdict(resp) {
				t.Fatal("toronto_ontario violated on the seed rows")
			}
			bad := service.UpdateTuple{Table: "CUST", Op: "insert", Values: []string{"Toronto", "416", "NJ"}}
			gone := service.UpdateTuple{Table: "CUST", Op: "delete", Values: []string{"Oshawa", "416", "NJ"}}

			// An acknowledged update moves a table version: nothing hits, and
			// the verdicts are the new state's.
			if st, ur := update(t, ts.URL, bad); st != http.StatusOK || ur.Applied != 1 {
				t.Fatalf("update: status %d, %+v", st, ur)
			}
			resp, hits, misses := checkNamed(t, ts.URL, service.CheckRequest{})
			if hits != 0 || misses != 2 || !verdict(resp) {
				t.Fatalf("after an insert: %d hits, %d misses, violated=%v; want 0, 2, true", hits, misses, verdict(resp))
			}
			if resp, hits, _ = checkNamed(t, ts.URL, service.CheckRequest{}); hits != 2 || !verdict(resp) {
				t.Fatalf("recheck: %d hits, violated=%v; want 2, true", hits, verdict(resp))
			}

			// A batch that fails half way has still applied its head.
			bad.Op = "delete"
			if st, ur := update(t, ts.URL, bad, gone); st == http.StatusOK || ur.Applied != 1 {
				t.Fatalf("half-failing update: status %d, %+v; want an error after 1 applied", st, ur)
			}
			resp, hits, misses = checkNamed(t, ts.URL, service.CheckRequest{})
			if hits != 0 || misses != 2 || verdict(resp) {
				t.Fatalf("after a half-applied batch: %d hits, %d misses, violated=%v; want 0, 2, false", hits, misses, verdict(resp))
			}

			// A batch that applies nothing — acknowledged, published, a new
			// epoch — changes no table, and invalidates nothing.
			if st, ur := update(t, ts.URL, gone); st == http.StatusOK || ur.Applied != 0 {
				t.Fatalf("empty-handed update: status %d, %+v; want an error, 0 applied", st, ur)
			}
			resp, hits, misses = checkNamed(t, ts.URL, service.CheckRequest{})
			if hits != 2 || misses != 0 || verdict(resp) {
				t.Fatalf("after a batch that applied nothing: %d hits, %d misses, violated=%v; want 2, 0, false", hits, misses, verdict(resp))
			}
		})
	}
}

// TestMemoStoresOnlyFactsAboutTheState: a verdict that fell back to SQL under
// the request's budget, or failed, says something about the request. The next
// check must not inherit it.
func TestMemoStoresOnlyFactsAboutTheState(t *testing.T) {
	const rules = testRules + `
	constraint ghost:
	    forall x: NOSUCH(x) => x = "a".
`
	for _, path := range memoPaths {
		t.Run(path.name, func(t *testing.T) {
			_, ts := newFixtureServer(t, rules, service.Options{Replicas: path.replicas})
			nj := service.CheckRequest{Constraints: []string{"nj_codes"}}

			starved := nj
			starved.NodeBudget = 1
			resp, hits, _ := checkNamed(t, ts.URL, starved)
			if r := resp.Results[0]; hits != 0 || !r.FellBack || r.Method != "sql" || !r.Violated {
				t.Fatalf("1-node budget: %d hits, %+v; want a SQL fallback", hits, r)
			}
			resp, hits, misses := checkNamed(t, ts.URL, nj)
			if r := resp.Results[0]; hits != 0 || misses != 1 || r.FellBack || r.Method != "bdd" || !r.Violated {
				t.Fatalf("after a fallback: %d hits, %d misses, %+v; want a fresh BDD verdict", hits, misses, r)
			}
			// Once the verdict is known a budget has nothing left to cap.
			resp, hits, _ = checkNamed(t, ts.URL, starved)
			if r := resp.Results[0]; hits != 1 || r.FellBack || r.Method != "bdd" || !r.Violated {
				t.Fatalf("starved recheck of a memoised verdict: %d hits, %+v", hits, r)
			}

			for i := 0; i < 2; i++ {
				resp, hits, _ = checkNamed(t, ts.URL, service.CheckRequest{Constraints: []string{"ghost"}})
				if r := resp.Results[0]; hits != 0 || r.Error == "" {
					t.Fatalf("check %d of a constraint over a missing table: %d hits, %+v; want an error, never memoised", i, hits, r)
				}
			}
		})
	}
}

// TestMemoIdentityIsNotTheName: a coordinator sends its HTTP workers
// decomposed formulas as text, under the names both were booted with. Text
// is never the registry's own constraint, whatever it is called.
func TestMemoIdentityIsNotTheName(t *testing.T) {
	for _, path := range memoPaths {
		t.Run(path.name, func(t *testing.T) {
			_, ts := newTestServer(t, service.Options{Replicas: path.replicas})
			nj := service.CheckRequest{Constraints: []string{"nj_codes"}}
			if resp, _, _ := checkNamed(t, ts.URL, nj); !resp.Results[0].Violated {
				t.Fatal("nj_codes holds on the seed rows")
			}
			// The same name over a body that admits Newark's 416.
			adhoc := service.CheckRequest{Text: `constraint nj_codes:
			    forall c, a: CUST(c, a, "NJ") => a in {"201", "973", "908", "416"}.`}
			for i := 0; i < 2; i++ {
				resp, hits, misses := checkNamed(t, ts.URL, adhoc)
				if r := resp.Results[0]; hits != 0 || misses != 0 || r.Name != "nj_codes" || r.Violated || r.Error != "" {
					t.Fatalf("ad-hoc nj_codes, check %d: %d hits, %d misses, %+v; want it evaluated, and holding", i, hits, misses, r)
				}
			}
			if resp, hits, _ := checkNamed(t, ts.URL, nj); hits != 1 || !resp.Results[0].Violated {
				t.Fatalf("registered nj_codes after its ad-hoc namesake: %d hits, %+v", hits, resp.Results[0])
			}
			// Both in one request: the registered entry may hit, the text may not.
			both := service.CheckRequest{Constraints: []string{"nj_codes"}, Text: adhoc.Text}
			resp, hits, _ := checkNamed(t, ts.URL, both)
			if hits != 1 || !resp.Results[0].Violated || resp.Results[1].Violated {
				t.Fatalf("registered + ad-hoc namesake: %d hits, %+v", hits, resp.Results)
			}
		})
	}
}

// TestPinnedReadsBypassMemo: a pinned read runs on a checker rebuilt from
// snapshot + WAL. It must neither be answered with the live verdicts nor
// replace them.
func TestPinnedReadsBypassMemo(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, ts := newDurableServer(t, st, service.Options{Replicas: 2})
	toronto := func(resp service.CheckResponse) bool { return resultsByName(t, resp)["toronto_ontario"].Violated }

	resp, _, _ := checkNamed(t, ts.URL, service.CheckRequest{})
	if resp.Epoch != 1 || toronto(resp) {
		t.Fatalf("epoch 1: %+v", resp)
	}
	if st, ur := update(t, ts.URL, service.UpdateTuple{Table: "CUST", Op: "insert", Values: []string{"Toronto", "416", "NJ"}}); st != http.StatusOK {
		t.Fatalf("update: status %d, %+v", st, ur)
	}
	if resp, _, _ = checkNamed(t, ts.URL, service.CheckRequest{}); resp.Epoch != 2 || !toronto(resp) {
		t.Fatalf("epoch 2: %+v", resp)
	}
	before := statsOf(t, ts.URL).Checker
	for i := 0; i < 2; i++ {
		var pinned service.CheckResponse
		if st := post(t, ts.URL+"/check?epoch=1", service.CheckRequest{}, &pinned); st != http.StatusOK {
			t.Fatalf("pinned read: status %d", st)
		}
		if pinned.Epoch != 1 || toronto(pinned) {
			t.Fatalf("?epoch=1 answered with another epoch's verdicts: %+v", pinned)
		}
	}
	if after := statsOf(t, ts.URL).Checker; after.MemoHits != before.MemoHits || after.MemoMisses != before.MemoMisses {
		t.Fatalf("pinned reads went through the memo: %+v -> %+v", before, after)
	}
	resp, hits, _ := checkNamed(t, ts.URL, service.CheckRequest{})
	if hits != 2 || resp.Epoch != 2 || !toronto(resp) {
		t.Fatalf("live check after pinned reads: %d hits, %+v", hits, resp)
	}
}

// TestReplyNamesTheVersionThatServedIt: a check that is dispatched before an
// update is published but served after it runs on the new version, and must
// say so — it used to carry the epoch current when the request arrived, and a
// follow-up ?epoch= read of that epoch returned other verdicts.
func TestReplyNamesTheVersionThatServedIt(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, ts := newDurableServer(t, st, service.Options{Replicas: 1})

	// Park the pool's one worker, so the check below waits in front of it.
	parked, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- srv.Pool().Do(context.Background(), func(*core.Checker, uint64) { close(parked); <-release })
	}()
	<-parked
	type reply struct {
		resp service.CheckResponse
		st   int
	}
	got := make(chan reply, 1)
	go func() {
		var r reply
		r.st = post(t, ts.URL+"/check", service.CheckRequest{}, &r.resp)
		got <- r
	}()
	// The check is past the point where it used to read the epoch once the
	// request counter has moved; give it a moment to reach the pool.
	for srv.Stats().Requests.Checks == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if st, ur := update(t, ts.URL, service.UpdateTuple{Table: "CUST", Op: "insert", Values: []string{"Toronto", "416", "NJ"}}); st != http.StatusOK {
		t.Fatalf("update: status %d, %+v", st, ur)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.st != http.StatusOK {
		t.Fatalf("check status %d", r.st)
	}
	var pinned service.CheckResponse
	if st := post(t, ts.URL+fmt.Sprintf("/check?epoch=%d", r.resp.Epoch), service.CheckRequest{}, &pinned); st != http.StatusOK {
		t.Fatalf("?epoch=%d: status %d", r.resp.Epoch, st)
	}
	for i, res := range r.resp.Results {
		if p := pinned.Results[i]; p.Name != res.Name || p.Violated != res.Violated {
			t.Errorf("reply says epoch %d and %s violated=%v; ?epoch=%d says violated=%v",
				r.resp.Epoch, res.Name, res.Violated, r.resp.Epoch, p.Violated)
		}
	}
}

// TestMemoUnderConcurrentReadsAndWrites is the -race run: readers hammer
// /check {} while one writer toggles a row that flips both registered
// constraints together. Every reply must hold at one version (the two
// verdicts agree), name it (the epoch's parity says which state that is),
// and — for the writer, who checks right after each acknowledgement — never
// predate an acknowledged write.
func TestMemoUnderConcurrentReadsAndWrites(t *testing.T) {
	// Both are violated exactly while (Toronto, 416, NJ) is present.
	const rules = `
	constraint toronto_ontario:
	    forall a, s: CUST("Toronto", a, s) => s = "Ontario".
	constraint toronto_not_nj:
	    forall a: CUST("Toronto", a, "NJ") => a = "647".
`
	toggle := []string{"Toronto", "416", "NJ"}
	for _, path := range memoPaths {
		t.Run(path.name, func(t *testing.T) {
			st, err := store.Open(t.TempDir(), store.Options{Fsync: store.FsyncOff})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			_, ts := newFixtureServer(t, rules, service.Options{Replicas: path.replicas, Store: st, SnapshotEveryBatches: -1})

			// The writer inserts into odd epochs' states: the row is present
			// at every even epoch.
			consistent := func(who string, resp service.CheckResponse) error {
				a, b := resp.Results[0], resp.Results[1]
				if a.Error != "" || b.Error != "" || a.Method != "bdd" || b.Method != "bdd" {
					return fmt.Errorf("%s: %+v", who, resp.Results)
				}
				if want := resp.Epoch%2 == 0; a.Violated != want || b.Violated != want {
					return fmt.Errorf("%s: reply at epoch %d says violated=%v/%v; that epoch's state says %v",
						who, resp.Epoch, a.Violated, b.Violated, want)
				}
				return nil
			}
			stop := make(chan struct{})
			errc := make(chan error, 8)
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					var last uint64
					for {
						select {
						case <-stop:
							return
						default:
						}
						var resp service.CheckResponse
						if st := post(t, ts.URL+"/check", service.CheckRequest{}, &resp); st != http.StatusOK {
							errc <- fmt.Errorf("reader %d: status %d", g, st)
							return
						}
						if err := consistent(fmt.Sprintf("reader %d", g), resp); err != nil {
							errc <- err
							return
						}
						if resp.Epoch < last {
							errc <- fmt.Errorf("reader %d: epoch went back from %d to %d", g, last, resp.Epoch)
							return
						}
						last = resp.Epoch
					}
				}(g)
			}
			var werr error
			for i := 0; i < 60 && werr == nil; i++ {
				op := "insert"
				if i%2 == 1 {
					op = "delete"
				}
				if st, ur := update(t, ts.URL, service.UpdateTuple{Table: "CUST", Op: op, Values: toggle}); st != http.StatusOK || ur.Applied != 1 {
					werr = fmt.Errorf("writer: %s %d: status %d, %+v", op, i, st, ur)
					break
				}
				var resp service.CheckResponse
				if st := post(t, ts.URL+"/check", service.CheckRequest{}, &resp); st != http.StatusOK {
					werr = fmt.Errorf("writer: check status %d", st)
					break
				}
				if werr = consistent("writer", resp); werr == nil && resp.Epoch != uint64(i)+2 {
					werr = fmt.Errorf("writer: check after the ack of epoch %d was served at epoch %d", i+2, resp.Epoch)
				}
			}
			close(stop)
			wg.Wait()
			if werr != nil {
				t.Fatal(werr)
			}
			select {
			case err := <-errc:
				t.Fatal(err)
			default:
			}
			stats := statsOf(t, ts.URL)
			if c := stats.Checker; c.MemoHits == 0 || c.MemoMisses == 0 {
				t.Fatalf("the run exercised only one side of the memo: %+v", c)
			}
			// On the pool path all of the above was served by replicas that
			// moved from epoch to epoch inside the kernel they were built with.
			if r := stats.Replication; path.replicas > 0 && (r.Rebuilds > uint64(r.Replicas) || r.Swaps <= r.Rebuilds) {
				t.Fatalf("swaps %d, rebuilds %d over %d replicas: the workers did not advance in place", r.Swaps, r.Rebuilds, r.Replicas)
			}
		})
	}
}

// midJobCtx runs hook inside the at-th call of Err — for a check of
// registered constraints that misses the memo, the second call is the
// replica job asking before its first evaluation, with its version pinned.
type midJobCtx struct {
	context.Context
	calls atomic.Int32
	at    int32
	hook  func()
}

func (c *midJobCtx) Err() error {
	if c.calls.Add(1) == c.at {
		c.hook()
	}
	return c.Context.Err()
}

// TestReroutedFallbackStaysAtOneVersion: a replica decides what it can at its
// version and bounces what needs SQL to the primary. If an update is
// acknowledged in between, the primary answers at a newer version; the reply
// must not mix the two, nor name the older one.
func TestReroutedFallbackStaysAtOneVersion(t *testing.T) {
	cat := relation.NewCatalog()
	cust, err := cat.CreateTable("CUST", []relation.Column{{Name: "city"}, {Name: "areacode"}, {Name: "state"}})
	if err != nil {
		t.Fatal(err)
	}
	area, err := cat.CreateTable("AREA", []relation.Column{{Name: "areacode"}})
	if err != nil {
		t.Fatal(err)
	}
	cust.Insert("Toronto", "647", "NJ")
	cust.Insert("Newark", "416", "NJ")
	area.Insert("647")
	chk := core.New(cat, core.Options{})
	if _, err := chk.BuildIndex("CUST", "CUST", nil, core.OrderProbConverge); err != nil {
		t.Fatal(err)
	}
	// AREA has no index: area_known needs the SQL fallback, on the primary.
	// Both constraints are violated exactly while (Toronto, 416, NJ) is present.
	cts, err := logic.ParseConstraints(`
	constraint toronto_647:
	    forall a: CUST("Toronto", a, "NJ") => a = "647".
	constraint area_known:
	    forall a: CUST("Toronto", a, "NJ") => AREA(a).
`)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), store.Options{Fsync: store.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.WriteSnapshot(chk, store.RenderConstraints(cts), 1); err != nil {
		t.Fatal(err)
	}
	srv, err := service.New(chk, cts, service.Options{Replicas: 1, Store: st, InitialEpoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx := &midJobCtx{Context: context.Background(), at: 2, hook: func() {
		ups := []core.Update{{Table: "CUST", Op: core.UpdateInsert, Values: []string{"Toronto", "416", "NJ"}}}
		if n, err := srv.Update(context.Background(), ups, nil); n != 1 || err != nil {
			t.Errorf("update inside the replica job: applied %d, %v", n, err)
		}
	}}
	resolved, registered, err := srv.Resolve(nil, "")
	if err != nil {
		t.Fatal(err)
	}
	results, epoch, err := srv.Check(ctx, resolved, registered, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	stats := srv.Stats()
	if w := stats.Replication.Workers[0]; w.Jobs != 1 || w.Epoch != 1 || stats.Replication.Reroutes != 1 {
		t.Fatalf("the scenario did not happen: want one replica job at epoch 1 and one reroute, got %+v, %d reroutes",
			w, stats.Replication.Reroutes)
	}
	if epoch != 2 || !results[0].Violated || !results[1].Violated || results[1].Method != "sql" {
		t.Fatalf("reply at epoch %d: %+v; want both violated at epoch 2", epoch, results)
	}
}
