package shard_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/shard"
)

// bootShardDaemon runs one partition behind a real single-kernel service,
// exactly what `cvserved` would serve as a worker process.
func bootShardDaemon(t *testing.T, cat *relation.Catalog) *httptest.Server {
	t.Helper()
	chk := core.New(cat, core.Options{})
	for _, tb := range cat.Tables() {
		if _, err := chk.BuildIndex(tb.Name(), tb.Name(), nil, core.OrderSchema); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := service.New(chk, nil, service.Options{Replicas: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs
}

// newHTTPCoordinator splits the fixture across nShards real HTTP daemons
// and returns the coordinator plus its own HTTP server.
func newHTTPCoordinator(t *testing.T, seed int64, nShards int) (*shard.Coordinator, *httptest.Server) {
	t.Helper()
	cat := fixtureCat(t)
	populate(cat, rand.New(rand.NewSource(seed)), 300)
	part := newPartitioner(t, cat, nShards)
	workers := make([]shard.Worker, nShards)
	for i, pc := range part.Split(cat) {
		hs := bootShardDaemon(t, pc)
		workers[i] = shard.NewHTTPWorker(i, hs.URL, hs.Client())
	}
	coord, err := shard.NewCoordinator(cat, mustParse(t, fixtureRules), part, workers, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	hs := httptest.NewServer(service.NewHandler(coord.Backend(), service.Options{}))
	t.Cleanup(hs.Close)
	return coord, hs
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func TestHTTPWorkersEndToEnd(t *testing.T) {
	_, hs := newHTTPCoordinator(t, 21, 3)

	// Reference: same fixture, one kernel.
	refCat := fixtureCat(t)
	populate(refCat, rand.New(rand.NewSource(21)), 300)
	ref := refChecker(t, refCat)
	cts := mustParse(t, fixtureRules)

	check := func(step string) {
		t.Helper()
		resp, body := postJSON(t, hs.URL+"/check", service.CheckRequest{
			Constraints: []string{"state_fd", "supp_city_known", "nj_exists", "area_known", "toronto_ontario", "area_covered"},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: /check %s: %s", step, resp.Status, body)
		}
		var cr service.CheckResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		if len(cr.Results) != len(cts) {
			t.Fatalf("%s: %d results", step, len(cr.Results))
		}
		for i, r := range cr.Results {
			want := ref.CheckOne(cts[i])
			if r.Error != "" || want.Err != nil {
				t.Fatalf("%s: %s: errors %q / %v", step, r.Name, r.Error, want.Err)
			}
			if r.Violated != want.Violated {
				t.Errorf("%s: %s: violated=%v, reference %v", step, r.Name, r.Violated, want.Violated)
			}
		}
	}
	check("initial")

	// Update across shard boundaries through the coordinator's HTTP edge,
	// with a trace, then re-check.
	ups := []service.UpdateTuple{
		{Table: "CUST", Op: "insert", Values: []string{"Trenton", "518", "NJ"}},
		{Table: "SUPP", Op: "insert", Values: []string{"Trenton", "NY"}},
		{Table: "AREA", Op: "insert", Values: []string{"518"}},
	}
	resp, body := postJSON(t, hs.URL+"/update?trace=1", service.UpdateRequest{Updates: ups})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/update %s: %s", resp.Status, body)
	}
	var ur service.UpdateResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Applied != len(ups) {
		t.Fatalf("applied %d of %d", ur.Applied, len(ups))
	}
	if ur.Trace == nil || len(ur.Trace.Spans) == 0 {
		t.Fatal("?trace=1 returned no spans")
	}
	for _, u := range ups {
		if _, err := ref.Apply([]core.Update{{Table: u.Table, Op: core.UpdateOp(u.Op), Values: u.Values}}); err != nil {
			t.Fatal(err)
		}
	}
	check("after update")

	// Witness identity over the HTTP edge for a violated validity rule.
	wantWs, err := ref.ViolationWitnesses(cts[5], 10000) // area_covered: residual plan
	if err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, hs.URL+"/witnesses", service.WitnessRequest{Constraint: "area_covered", Limit: 10000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/witnesses %s: %s", resp.Status, body)
	}
	var wr service.WitnessResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	got := make([]core.Witness, len(wr.Witnesses))
	for i, w := range wr.Witnesses {
		got[i] = core.Witness{Vars: w.Vars, Values: w.Values}
	}
	wantSet, gotSet := witnessSet(wantWs), witnessSet(got)
	if len(wantSet) != len(gotSet) {
		t.Fatalf("witnesses %d vs reference %d", len(gotSet), len(wantSet))
	}
}

func TestCoordinatorHTTPEdge(t *testing.T) {
	coord, hs := newHTTPCoordinator(t, 11, 2)

	t.Run("statsz", func(t *testing.T) {
		resp, err := http.Get(hs.URL + "/statsz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st shard.CoordStatsz
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if st.Shards != 2 || len(st.Workers) != 2 || st.ShardKey != "CUST.city" {
			t.Fatalf("statsz = %+v", st)
		}
		if len(st.Plans) != 6 {
			t.Fatalf("plans: %v", st.Plans)
		}
	})

	t.Run("metricsz", func(t *testing.T) {
		resp, err := http.Get(hs.URL + "/metricsz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{`cv_shard_up{shard="0"}`, `cv_shard_up{shard="1"}`, `cv_shard_epoch{shard="0"}`, "cv_coord_epoch"} {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("metricsz missing %s", want)
			}
		}
	})

	// Pinned epochs, unknown constraints and trailing garbage are rows of
	// TestEdgeConformance, which holds all three daemon forms to them.

	t.Run("healthz", func(t *testing.T) {
		resp, err := http.Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h service.HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || h.Status != "ok" {
			t.Fatalf("healthz = %+v, %v", h, err)
		}
	})
	_ = coord
}

func TestCoordinatorWorkerKilled(t *testing.T) {
	cat := fixtureCat(t)
	populate(cat, rand.New(rand.NewSource(31)), 200)
	part := newPartitioner(t, cat, 2)
	parts := part.Split(cat)

	daemons := make([]*httptest.Server, 2)
	workers := make([]shard.Worker, 2)
	for i := range parts {
		daemons[i] = bootShardDaemon(t, parts[i])
		workers[i] = shard.NewHTTPWorker(i, daemons[i].URL, daemons[i].Client())
	}
	coord, err := shard.NewCoordinator(cat, mustParse(t, fixtureRules), part, workers, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	hs := httptest.NewServer(service.NewHandler(coord.Backend(), service.Options{}))
	t.Cleanup(hs.Close)

	daemons[1].Close() // worker 1 dies

	resp, body := postJSON(t, hs.URL+"/check", service.CheckRequest{Constraints: []string{"state_fd"}})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %s, want 502: %s", resp.Status, body)
	}
	var env struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || !strings.Contains(env.Error, "shard 1") {
		t.Fatalf("error envelope %q does not name the dead shard", body)
	}

	// The rollup must now report the shard down.
	mresp, err := http.Get(hs.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), fmt.Sprintf(`cv_shard_up{shard="1"} 0`)) {
		t.Errorf("cv_shard_up did not drop to 0:\n%s", buf.String())
	}
}

// residualName is the fixture constraint the decomposer plans residual.
const residualName = "area_covered"

// newInProcessEdge serves a two-shard in-process coordinator over the
// fixture through the shared edge.
func newInProcessEdge(t *testing.T) *httptest.Server {
	t.Helper()
	cat := fixtureCat(t)
	populate(cat, rand.New(rand.NewSource(6)), 200)
	cts := mustParse(t, fixtureRules)
	coord, err := shard.NewInProcess(cat, cts, newPartitioner(t, cat, 2), shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	hs := httptest.NewServer(service.NewHandler(coord.Backend(), service.Options{}))
	t.Cleanup(hs.Close)
	if kind := coord.PlanFor(cts[5]).Kind; cts[5].Name != residualName || kind != shard.PlanResidual {
		t.Fatalf("%s plans %v, want residual", cts[5].Name, kind)
	}
	return hs
}

// TestCoordinatorResidualTraceCarriesKernelDelta checks that a traced /check
// of a residual-planned constraint through the coordinator's edge carries
// the residual server's own eval span, with the kernel work it did.
func TestCoordinatorResidualTraceCarriesKernelDelta(t *testing.T) {
	hs := newInProcessEdge(t)
	const name = residualName
	resp, body := postJSON(t, hs.URL+"/check?trace=1", service.CheckRequest{Constraints: []string{name}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/check %s: %s", resp.Status, body)
	}
	var cr service.CheckResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Trace == nil {
		t.Fatal("?trace=1 returned no trace")
	}
	for _, sp := range cr.Trace.Spans {
		if sp.Name == "eval:"+name {
			if sp.Kernel == nil || sp.Kernel.Ops == 0 {
				t.Fatalf("eval:%s span carries no kernel work: %+v", name, sp)
			}
			return
		}
	}
	t.Fatalf("no eval:%s span in %+v", name, cr.Trace.Spans)
}

// TestCoordinatorStatszShowsResidual checks that the coordinator's /statsz
// carries the residual server's own document: after a residual-planned
// /check, its kernel has done work and it has counted the check.
func TestCoordinatorStatszShowsResidual(t *testing.T) {
	hs := newInProcessEdge(t)
	if resp, body := postJSON(t, hs.URL+"/check", service.CheckRequest{Constraints: []string{residualName}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("/check %s: %s", resp.Status, body)
	}
	resp, err := http.Get(hs.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Residual struct {
			PrimaryKernel struct {
				Ops uint64 `json:"ops"`
			} `json:"primary_kernel"`
			Requests struct {
				Checks uint64 `json:"checks"`
			} `json:"requests"`
		} `json:"residual"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Residual.PrimaryKernel.Ops == 0 || st.Residual.Requests.Checks < 1 {
		t.Fatalf("/statsz residual = %+v, want kernel ops and a counted check", st.Residual)
	}
}
