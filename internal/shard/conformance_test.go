package shard_test

// conformance_test.go holds the three daemon forms — a single-kernel
// service.Server, a coordinator over in-process shards and a coordinator
// over HTTP workers — to one request table through the one HTTP edge: each
// request must draw the same status and the same envelope keys from all
// three, and, where the message is the edge's own, the same text.

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/shard"
)

// conformanceCap is the body cap every backend's edge runs with, small
// enough that the 413 case needs no megabytes.
const conformanceCap = 4 << 10

type edgeBackend struct {
	name  string
	url   string
	close func()
}

// conformanceBackends boots the three forms over the same fixture, each
// behind service.NewHandler with the same edge options — the call
// cmd/cvserved makes.
func conformanceBackends(t *testing.T, edge service.Options) []edgeBackend {
	t.Helper()
	serve := func(name string, b service.Backend, closeFn func()) edgeBackend {
		hs := httptest.NewServer(service.NewHandler(b, edge))
		t.Cleanup(hs.Close)
		t.Cleanup(closeFn)
		return edgeBackend{name: name, url: hs.URL, close: closeFn}
	}
	cts := mustParse(t, fixtureRules)

	cat := fixtureCat(t)
	populate(cat, rand.New(rand.NewSource(17)), 300)
	srv, err := service.New(refChecker(t, cat), cts, service.Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}

	cat = fixtureCat(t)
	populate(cat, rand.New(rand.NewSource(17)), 300)
	inproc, err := shard.NewInProcess(cat, cts, newPartitioner(t, cat, 2), shard.Options{})
	if err != nil {
		t.Fatal(err)
	}

	cat = fixtureCat(t)
	populate(cat, rand.New(rand.NewSource(17)), 300)
	part := newPartitioner(t, cat, 2)
	workers := make([]shard.Worker, 2)
	for i, pc := range part.Split(cat) {
		hs := bootShardDaemon(t, pc)
		workers[i] = shard.NewHTTPWorker(i, hs.URL, hs.Client())
	}
	remote, err := shard.NewCoordinator(cat, cts, part, workers, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}

	return []edgeBackend{
		serve("server", srv, srv.Close),
		serve("coordinator/in-process", inproc.Backend(), inproc.Close),
		serve("coordinator/http-workers", remote.Backend(), remote.Close),
	}
}

// edgeReply is what the table compares: status, top-level JSON keys, and the
// error text when there is one.
type edgeReply struct {
	status int
	keys   string
	errMsg string
	doc    map[string]json.RawMessage
}

func edgePost(t *testing.T, url, body string) edgeReply {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	r := edgeReply{status: resp.StatusCode}
	if err := json.Unmarshal(raw, &r.doc); err != nil {
		t.Fatalf("%s: reply is not a JSON object: %s", url, raw)
	}
	var keys []string
	for k := range r.doc {
		// "epoch" is present exactly when the backend has one to report: a
		// coordinator always does, a store-less server never.
		if k != "epoch" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	r.keys = strings.Join(keys, ",")
	if msg, ok := r.doc["error"]; ok {
		_ = json.Unmarshal(msg, &r.errMsg)
	}
	return r
}

func TestEdgeConformance(t *testing.T) {
	backends := conformanceBackends(t, service.Options{MaxBodyBytes: conformanceCap})

	const manyViolations = `constraint only416: forall c, a, s: CUST(c, a, s) => a in {\"416\"}.`
	cases := []struct {
		name, path, body string
		status           int
		keys             string
		// sameText demands one error text from all three backends: set where
		// the message is the edge's or the shared registry's.
		sameText bool
		check    func(t *testing.T, backend string, r edgeReply)
	}{
		{name: "unknown_field", path: "/check", body: `{"frobnicate": 1}`,
			status: 400, keys: "error", sameText: true},
		{name: "trailing_data", path: "/check", body: `{"constraints":["state_fd"]} extra`,
			status: 400, keys: "error", sameText: true},
		{name: "body_over_cap", path: "/check", body: `{"text":"` + strings.Repeat("x", conformanceCap) + `"}`,
			status: 413, keys: "error", sameText: true},
		{name: "epoch_not_a_number", path: "/check?epoch=abc", body: `{}`,
			status: 400, keys: "error", sameText: true},
		{name: "epoch_pin_without_history", path: "/check?epoch=3", body: `{"constraints":["state_fd"]}`,
			status: 400, keys: "error"},
		{name: "unknown_constraint", path: "/check", body: `{"constraints":["nope"]}`,
			status: 400, keys: "error", sameText: true},
		{name: "empty_update_batch", path: "/update", body: `{"updates":[]}`,
			status: 400, keys: "error", sameText: true},
		{name: "failed_update_reports_applied", path: "/update",
			body:   `{"updates":[{"table":"GHOST","op":"insert","values":["x"]}]}`,
			status: 400, keys: "applied,error"},
		{name: "witnesses_without_constraint_or_text", path: "/witnesses", body: `{}`,
			status: 400, keys: "error", sameText: true},
		{name: "witnesses_negative_limit", path: "/witnesses", body: `{"text":"` + manyViolations + `","limit":-1}`,
			status: 200, keys: "constraint,method,witnesses",
			check: func(t *testing.T, backend string, r edgeReply) {
				var ws []service.Witness
				if err := json.Unmarshal(r.doc["witnesses"], &ws); err != nil {
					t.Fatal(err)
				}
				if len(ws) == 0 || len(ws) > service.DefaultWitnessLimit {
					t.Errorf("%s: limit -1 returned %d witnesses, want 1..%d", backend, len(ws), service.DefaultWitnessLimit)
				}
			}},
		{name: "witnesses_of_a_holding_constraint", path: "/witnesses", body: `{"constraint":"area_known"}`,
			status: 200, keys: "constraint,method,witnesses",
			check: func(t *testing.T, backend string, r edgeReply) {
				var ws []service.Witness
				var method string
				if err := json.Unmarshal(r.doc["witnesses"], &ws); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(r.doc["method"], &method); err != nil {
					t.Fatal(err)
				}
				// The BDD's empty answer is definite: the single-kernel server
				// reports it as such rather than re-asking SQL.
				if len(ws) != 0 || (backend == "server" && method != "bdd") {
					t.Errorf("%s: %d witnesses by method %q, want none by the BDD", backend, len(ws), method)
				}
			}},
		{name: "witnesses_of_an_existence_check", path: "/witnesses", body: `{"constraint":"nj_exists"}`,
			status: 200, keys: "constraint,method,witnesses",
			check: func(t *testing.T, backend string, r edgeReply) {
				// An existence check has no per-binding witnesses in the BDD,
				// so every form drills down through SQL, as cvcheck does, and
				// says so.
				var method string
				if err := json.Unmarshal(r.doc["method"], &method); err != nil {
					t.Fatal(err)
				}
				if method != "sql" {
					t.Errorf("%s: method %q, want sql", backend, method)
				}
			}},
		{name: "traced_check", path: "/check?trace=1", body: `{"constraints":["state_fd"]}`,
			status: 200, keys: "results,trace",
			check: func(t *testing.T, backend string, r edgeReply) {
				var tr service.TraceInfo
				if err := json.Unmarshal(r.doc["trace"], &tr); err != nil {
					t.Fatal(err)
				}
				if tr.TotalNS <= 0 || len(tr.Spans) == 0 {
					t.Errorf("%s: ?trace=1 returned %+v", backend, tr)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var first edgeReply
			for i, b := range backends {
				r := edgePost(t, b.url+tc.path, tc.body)
				if r.status != tc.status || r.keys != tc.keys {
					t.Errorf("%s: status %d keys [%s], want %d [%s] (error %q)", b.name, r.status, r.keys, tc.status, tc.keys, r.errMsg)
				}
				if tc.status >= 400 && r.errMsg == "" {
					t.Errorf("%s: %d without an error message", b.name, r.status)
				}
				if i == 0 {
					first = r
				} else if tc.sameText && r.errMsg != first.errMsg {
					t.Errorf("%s says %q where %s says %q", b.name, r.errMsg, backends[0].name, first.errMsg)
				}
				if tc.check != nil {
					tc.check(t, b.name, r)
				}
			}
		})
	}

	// Last, because it is destructive: once the backend is closed, the edge
	// answers 503 in every form — HTTP workers outliving their coordinator
	// included.
	t.Run("after_close", func(t *testing.T) {
		for _, b := range backends {
			b.close()
			for _, req := range []struct{ path, body string }{
				{"/check", `{"constraints":["state_fd"]}`},
				{"/witnesses", `{"constraint":"state_fd"}`},
				{"/update", `{"updates":[{"table":"AREA","op":"insert","values":["416"]}]}`},
			} {
				if r := edgePost(t, b.url+req.path, req.body); r.status != http.StatusServiceUnavailable || r.errMsg == "" {
					t.Errorf("%s: %s after Close: status %d, error %q; want 503", b.name, req.path, r.status, r.errMsg)
				}
			}
		}
	})
}

// TestEdgeOptionsReachCoordinator pins that the edge-level options and
// metric families are the shared edge's in the sharded forms too: the
// slow-request log fires, /metricsz carries the per-endpoint histogram,
// response classes and slow-request counter under the service's names, and
// an in-process worker's status block reports its kernel's counters.
func TestEdgeOptionsReachCoordinator(t *testing.T) {
	var slow bytes.Buffer
	backends := conformanceBackends(t, service.Options{SlowRequest: 1, SlowLog: log.New(&slow, "", 0)})
	b := backends[1] // coordinator over in-process shards

	if r := edgePost(t, b.url+"/check", `{}`); r.status != http.StatusOK {
		t.Fatalf("/check status %d: %s", r.status, r.errMsg)
	}
	if !strings.Contains(slow.String(), "slow request: endpoint=check") {
		t.Errorf("slow-request log did not fire on the coordinator: %q", slow.String())
	}

	resp, err := http.Get(b.url + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`cv_request_duration_seconds_count{endpoint="check"} 1`,
		`cv_http_responses_total{class="2xx"}`,
		`cv_slow_requests_total 1`,
		`cv_coord_plan_checks_total{plan="local"}`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("coordinator /metricsz missing %s", want)
		}
	}

	resp, err = http.Get(b.url + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st shard.CoordStatsz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	for _, w := range st.Workers {
		if !w.InProcess || w.KernelOps == 0 || w.KernelNodesAllocated == 0 || w.Checks == 0 {
			t.Errorf("in-process worker status lacks kernel counters: %+v", w)
		}
	}
}
