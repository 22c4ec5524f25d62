package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/store"
)

const testRules = `
	constraint nj_codes:
	    forall c, a: CUST(c, a, "NJ") => a in {"201", "973", "908"}.
	constraint toronto_ontario:
	    forall a, s: CUST("Toronto", a, s) => s = "Ontario".
`

// newTestServer builds the cvcheck end-to-end fixture as a running daemon:
// one CUST table, one index, two constraints (nj_codes is violated by the
// Newark/416 row, toronto_ontario holds).
func newTestServer(t *testing.T, opts service.Options) (*service.Server, *httptest.Server) {
	t.Helper()
	return newFixtureServer(t, testRules, opts)
}

// newFixtureServer serves the fixture table under the given registry.
func newFixtureServer(t *testing.T, rules string, opts service.Options) (*service.Server, *httptest.Server) {
	t.Helper()
	return newCatalogServer(t, fixtureCatalog(t), rules, opts)
}

// newCatalogServer indexes cat's CUST table and serves it under the given
// registry. With opts.Store set, the initial state is sealed as the epoch-1
// snapshot the way cvserved's cold boot does.
func newCatalogServer(t *testing.T, cat *relation.Catalog, rules string, opts service.Options) (*service.Server, *httptest.Server) {
	t.Helper()
	chk := core.New(cat, core.Options{})
	if _, err := chk.BuildIndex("CUST", "CUST", nil, core.OrderProbConverge); err != nil {
		t.Fatal(err)
	}
	cts, err := logic.ParseConstraints(rules)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Store != nil {
		if err := opts.Store.WriteSnapshot(chk, store.RenderConstraints(cts), 1); err != nil {
			t.Fatal(err)
		}
		opts.InitialEpoch = 1
	}
	srv, err := service.New(chk, cts, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// fixtureCatalog is the five-row CUST table of the cvcheck fixture.
func fixtureCatalog(t *testing.T) *relation.Catalog {
	t.Helper()
	cat := relation.NewCatalog()
	cust, err := cat.CreateTable("CUST", []relation.Column{
		{Name: "city"}, {Name: "areacode"}, {Name: "state"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]string{
		{"Toronto", "416", "Ontario"},
		{"Toronto", "647", "Ontario"},
		{"Oshawa", "905", "Ontario"},
		{"Newark", "973", "NJ"},
		{"Newark", "416", "NJ"},
	} {
		cust.Insert(row...)
	}
	return cat
}

// post sends body as JSON and decodes the reply into out, returning the
// HTTP status.
func post(t *testing.T, url string, body, out any) int {
	t.Helper()
	enc, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s reply %q: %v", url, raw, err)
		}
	}
	return resp.StatusCode
}

func get(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s reply: %v", url, err)
		}
	}
	return resp.StatusCode
}

// resultsByName indexes a check response.
func resultsByName(t *testing.T, resp service.CheckResponse) map[string]service.CheckResult {
	t.Helper()
	out := make(map[string]service.CheckResult, len(resp.Results))
	for _, r := range resp.Results {
		if r.Error != "" {
			t.Fatalf("constraint %s errored: %s", r.Name, r.Error)
		}
		out[r.Name] = r
	}
	return out
}

func TestCheckAllConstraints(t *testing.T) {
	_, ts := newTestServer(t, service.Options{})
	var resp service.CheckResponse
	if st := post(t, ts.URL+"/check", service.CheckRequest{}, &resp); st != http.StatusOK {
		t.Fatalf("status %d", st)
	}
	res := resultsByName(t, resp)
	if len(res) != 2 {
		t.Fatalf("want 2 results, got %d", len(res))
	}
	if !res["nj_codes"].Violated || res["nj_codes"].Method != "bdd" {
		t.Fatalf("nj_codes: %+v, want violated via bdd", res["nj_codes"])
	}
	if res["toronto_ontario"].Violated {
		t.Fatalf("toronto_ontario should hold: %+v", res["toronto_ontario"])
	}
}

func TestCheckNamedAndAdHocText(t *testing.T) {
	_, ts := newTestServer(t, service.Options{})
	var resp service.CheckResponse
	st := post(t, ts.URL+"/check", service.CheckRequest{
		Constraints: []string{"nj_codes"},
		Text:        `constraint adhoc: forall c, a: CUST(c, a, "Ontario") => c in {"Toronto", "Oshawa"}.`,
	}, &resp)
	if st != http.StatusOK {
		t.Fatalf("status %d", st)
	}
	res := resultsByName(t, resp)
	if len(res) != 2 {
		t.Fatalf("want named + ad-hoc results, got %+v", resp.Results)
	}
	if !res["nj_codes"].Violated || res["adhoc"].Violated {
		t.Fatalf("unexpected outcomes: %+v", res)
	}
}

func TestUpdateVisibleToLaterChecks(t *testing.T) {
	_, ts := newTestServer(t, service.Options{})
	check := func(wantViolated bool) service.CheckResult {
		t.Helper()
		var resp service.CheckResponse
		if st := post(t, ts.URL+"/check", service.CheckRequest{Constraints: []string{"toronto_ontario"}}, &resp); st != http.StatusOK {
			t.Fatalf("status %d", st)
		}
		r := resultsByName(t, resp)["toronto_ontario"]
		if r.Violated != wantViolated {
			t.Fatalf("toronto_ontario violated=%v, want %v", r.Violated, wantViolated)
		}
		if r.Method != "bdd" {
			t.Fatalf("index must stay usable across updates, got method=%q", r.Method)
		}
		return r
	}
	check(false)
	// A Toronto row outside Ontario violates the constraint; the tuple uses
	// only existing attribute values, so the incremental path handles it.
	var ur service.UpdateResponse
	st := post(t, ts.URL+"/update", service.UpdateRequest{Updates: []service.UpdateTuple{
		{Table: "CUST", Op: "insert", Values: []string{"Toronto", "416", "NJ"}},
	}}, &ur)
	if st != http.StatusOK || ur.Applied != 1 {
		t.Fatalf("insert: status %d, %+v", st, ur)
	}
	check(true)
	st = post(t, ts.URL+"/update", service.UpdateRequest{Updates: []service.UpdateTuple{
		{Table: "CUST", Op: "delete", Values: []string{"Toronto", "416", "NJ"}},
	}}, &ur)
	if st != http.StatusOK || ur.Applied != 1 {
		t.Fatalf("delete: status %d, %+v", st, ur)
	}
	check(false)
}

func TestNodeBudgetDegradesToSQLFallback(t *testing.T) {
	_, ts := newTestServer(t, service.Options{})
	var resp service.CheckResponse
	st := post(t, ts.URL+"/check", service.CheckRequest{
		Constraints: []string{"nj_codes"},
		NodeBudget:  1,
	}, &resp)
	if st != http.StatusOK {
		t.Fatalf("status %d", st)
	}
	r := resultsByName(t, resp)["nj_codes"]
	if !r.FellBack || r.Method != "sql" {
		t.Fatalf("want SQL fallback under 1-node budget, got %+v", r)
	}
	if !r.Violated {
		t.Fatal("fallback must still detect the violation")
	}
	if !strings.Contains(r.FallbackReason, "budget") {
		t.Fatalf("fallback reason should name the budget: %q", r.FallbackReason)
	}
	// The cap was per-request: the next uncapped check uses the BDD again.
	st = post(t, ts.URL+"/check", service.CheckRequest{Constraints: []string{"nj_codes"}}, &resp)
	if st != http.StatusOK {
		t.Fatalf("status %d", st)
	}
	if r := resultsByName(t, resp)["nj_codes"]; r.Method != "bdd" {
		t.Fatalf("budget cap leaked across requests: %+v", r)
	}
}

func TestWitnesses(t *testing.T) {
	_, ts := newTestServer(t, service.Options{})
	var resp service.WitnessResponse
	st := post(t, ts.URL+"/witnesses", service.WitnessRequest{Constraint: "nj_codes", Limit: 5}, &resp)
	if st != http.StatusOK {
		t.Fatalf("status %d", st)
	}
	if resp.Method != "bdd" || len(resp.Witnesses) == 0 {
		t.Fatalf("want BDD witnesses, got %+v", resp)
	}
	found := false
	for _, w := range resp.Witnesses {
		for _, v := range w.Values {
			if v == "416" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("witnesses should include the offending areacode 416: %+v", resp.Witnesses)
	}
	// A satisfied constraint has no witnesses.
	st = post(t, ts.URL+"/witnesses", service.WitnessRequest{Constraint: "toronto_ontario"}, &resp)
	if st != http.StatusOK || len(resp.Witnesses) != 0 {
		t.Fatalf("satisfied constraint: status %d, witnesses %+v", st, resp.Witnesses)
	}
}

func TestHealthzAndStatsz(t *testing.T) {
	_, ts := newTestServer(t, service.Options{})
	var health service.HealthResponse
	if st := get(t, ts.URL+"/healthz", &health); st != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz: %d %+v", st, health)
	}
	// Drive one check and one update so the counters move.
	post(t, ts.URL+"/check", service.CheckRequest{}, nil)
	post(t, ts.URL+"/update", service.UpdateRequest{Updates: []service.UpdateTuple{
		{Table: "CUST", Op: "insert", Values: []string{"Oshawa", "905", "Ontario"}},
	}}, nil)
	var stats service.StatszResponse
	if st := get(t, ts.URL+"/statsz", &stats); st != http.StatusOK {
		t.Fatalf("statsz status %d", st)
	}
	if stats.Kernel.LiveNodes <= 2 || stats.Kernel.PeakNodes < stats.Kernel.LiveNodes {
		t.Fatalf("kernel counters look dead: %+v", stats.Kernel)
	}
	if stats.Requests.Checks < 1 || stats.Requests.UpdateJobs < 1 || stats.Requests.UpdateTuples < 1 {
		t.Fatalf("request counters did not move: %+v", stats.Requests)
	}
	if stats.Checker.BDDChecks < 1 {
		t.Fatalf("checker counters did not move: %+v", stats.Checker)
	}
	if len(stats.Indices) != 1 || stats.Indices[0].Name != "CUST" || stats.Indices[0].Nodes <= 0 {
		t.Fatalf("index stats: %+v", stats.Indices)
	}
	if len(stats.Tables) != 1 || stats.Tables[0].Rows != 6 {
		t.Fatalf("table stats after insert: %+v", stats.Tables)
	}
	if stats.Queue.ChecksCap <= 0 || stats.Queue.UpdatesCap <= 0 {
		t.Fatalf("queue stats: %+v", stats.Queue)
	}
	if len(stats.Constraints) != 2 {
		t.Fatalf("constraint listing: %+v", stats.Constraints)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, service.Options{})
	var errResp map[string]string
	if st := post(t, ts.URL+"/check", service.CheckRequest{Constraints: []string{"nope"}}, &errResp); st != http.StatusBadRequest {
		t.Errorf("unknown constraint: status %d", st)
	}
	if st := post(t, ts.URL+"/check", service.CheckRequest{Text: "constraint broken: forall"}, &errResp); st != http.StatusBadRequest {
		t.Errorf("bad constraint text: status %d", st)
	}
	var ur service.UpdateResponse
	if st := post(t, ts.URL+"/update", service.UpdateRequest{Updates: []service.UpdateTuple{
		{Table: "CUST", Op: "upsert", Values: []string{"a", "b", "c"}},
	}}, &ur); st != http.StatusBadRequest || ur.Applied != 0 {
		t.Errorf("bad op: status %d, %+v", st, ur)
	}
	if st := post(t, ts.URL+"/update", service.UpdateRequest{Updates: []service.UpdateTuple{
		{Table: "CUST", Op: "insert", Values: []string{"only-one"}},
	}}, &ur); st != http.StatusBadRequest {
		t.Errorf("bad arity: status %d", st)
	}
	if st := post(t, ts.URL+"/update", service.UpdateRequest{}, &ur); st != http.StatusBadRequest {
		t.Errorf("empty batch: status %d", st)
	}
	resp, err := http.Post(ts.URL+"/check", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/check")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /check: status %d", resp.StatusCode)
	}
}

func TestShutdownRefusesWork(t *testing.T) {
	srv, ts := newTestServer(t, service.Options{})
	srv.Close()
	var errResp map[string]string
	if st := post(t, ts.URL+"/check", service.CheckRequest{}, &errResp); st != http.StatusServiceUnavailable {
		t.Fatalf("check after Close: status %d", st)
	}
	var ur service.UpdateResponse
	if st := post(t, ts.URL+"/update", service.UpdateRequest{Updates: []service.UpdateTuple{
		{Table: "CUST", Op: "insert", Values: []string{"Oshawa", "905", "Ontario"}},
	}}, &ur); st != http.StatusServiceUnavailable {
		t.Fatalf("update after Close: status %d", st)
	}
}

// TestConcurrentChecksAndUpdates fires concurrent check, update and stats
// traffic at one server. Updates insert then delete tuples built from
// existing attribute values, so the database always returns to the seed
// state and every check has a deterministic expectation: nj_codes is always
// violated (the Newark/416 seed row never moves) and toronto_ontario never
// is (the churned tuples are all Ontario rows). Run under -race this pins
// down the serialization of all kernel access behind the worker.
func TestConcurrentChecksAndUpdates(t *testing.T) {
	_, ts := newTestServer(t, service.Options{QueueDepth: 8})
	const (
		checkers = 8
		updaters = 8
		readers  = 2
		iters    = 12
	)
	var wg sync.WaitGroup
	errc := make(chan error, checkers+updaters+readers)
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
				req := service.CheckRequest{}
				if g%2 == 0 {
					req.Constraints = []string{"nj_codes", "toronto_ontario"}
				}
				var resp service.CheckResponse
				enc, _ := json.Marshal(req)
				hr, err := http.Post(ts.URL+"/check", "application/json", bytes.NewReader(enc))
				if err != nil {
					report("checker %d: %v", g, err)
					return
				}
				body, _ := io.ReadAll(hr.Body)
				hr.Body.Close()
				if hr.StatusCode != http.StatusOK {
					report("checker %d: status %d: %s", g, hr.StatusCode, body)
					return
				}
				if err := json.Unmarshal(body, &resp); err != nil {
					report("checker %d: decode: %v", g, err)
					return
				}
				for _, r := range resp.Results {
					if r.Error != "" {
						report("checker %d: %s errored: %s", g, r.Name, r.Error)
						return
					}
					switch r.Name {
					case "nj_codes":
						if !r.Violated {
							report("checker %d: nj_codes not violated", g)
							return
						}
					case "toronto_ontario":
						if r.Violated {
							report("checker %d: toronto_ontario violated", g)
							return
						}
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
					enc, _ := json.Marshal(service.UpdateRequest{Updates: []service.UpdateTuple{
						{Table: "CUST", Op: op, Values: row},
					}})
					hr, err := http.Post(ts.URL+"/update", "application/json", bytes.NewReader(enc))
					if err != nil {
						report("updater %d: %v", g, err)
						return
					}
					body, _ := io.ReadAll(hr.Body)
					hr.Body.Close()
					if hr.StatusCode != http.StatusOK {
						report("updater %d: %s status %d: %s", g, op, hr.StatusCode, body)
						return
					}
					if err := json.Unmarshal(body, &ur); err != nil || ur.Applied != 1 {
						report("updater %d: %s reply %+v err %v", g, op, ur, err)
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters*2; i++ {
				hr, err := http.Get(ts.URL + "/statsz")
				if err != nil {
					report("reader %d: %v", g, err)
					return
				}
				io.Copy(io.Discard, hr.Body)
				hr.Body.Close()
				if hr.StatusCode != http.StatusOK {
					report("reader %d: status %d", g, hr.StatusCode)
					return
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
	// Every insert was matched by a delete: the database is back at the
	// seed state, the indices maintained incrementally throughout.
	var resp service.CheckResponse
	if st := post(t, ts.URL+"/check", service.CheckRequest{}, &resp); st != http.StatusOK {
		t.Fatalf("final check: status %d", st)
	}
	for _, r := range resultsByName(t, resp) {
		if r.Method != "bdd" {
			t.Fatalf("index unusable after churn: %+v", r)
		}
	}
	var stats service.StatszResponse
	if st := get(t, ts.URL+"/statsz", &stats); st != http.StatusOK {
		t.Fatalf("statsz status %d", st)
	}
	if stats.Tables[0].Rows != 5 {
		t.Fatalf("table should be back at 5 seed rows, got %d", stats.Tables[0].Rows)
	}
	wantTuples := uint64(updaters * iters * 2)
	if stats.Requests.UpdateTuples != wantTuples {
		t.Fatalf("update_tuples = %d, want %d", stats.Requests.UpdateTuples, wantTuples)
	}
}
