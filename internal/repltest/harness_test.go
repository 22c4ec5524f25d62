package repltest

// harness_test.go wires real leaders and followers together for the fault
// suite: fixture construction, node lifecycle (a service.Server behind an
// httptest listener over its own data directory), HTTP drivers, convergence
// waits, and the verdict/witness identity assertion.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/store"
)

const fixtureRules = `
	constraint nj_codes:
	    forall c, a: CUST(c, a, "NJ") => a in {"201", "973", "908"}.
	constraint supp_city_known:
	    forall c, s: SUPP(c, s) => exists a, s2: CUST(c, a, s2).
	constraint toronto_ontario:
	    forall a, s: CUST("Toronto", a, s) => s = "Ontario".
`

var (
	cities = []string{"Toronto", "Oshawa", "Newark", "Trenton", "Buffalo", "Albany"}
	codes  = []string{"416", "647", "905", "973", "201", "908", "716", "518"}
	states = []string{"Ontario", "NJ", "NY"}
)

// buildFixture creates the two-table checker the suite replicates, with
// nRows random CUST rows and nRows/2 SUPP rows, plus its constraint set.
func buildFixture(t testing.TB, rng *rand.Rand, nRows int) (*core.Checker, []logic.Constraint) {
	t.Helper()
	cust := make([][]string, nRows)
	for i := range cust {
		cust[i] = []string{cities[rng.Intn(len(cities))], codes[rng.Intn(len(codes))], states[rng.Intn(len(states))]}
	}
	supp := make([][]string, nRows/2)
	for i := range supp {
		supp[i] = []string{cities[rng.Intn(len(cities))], states[rng.Intn(len(states))]}
	}
	return buildFixtureRows(t, cust, supp)
}

// buildFixtureRows is buildFixture over the given rows.
func buildFixtureRows(t testing.TB, custRows, suppRows [][]string) (*core.Checker, []logic.Constraint) {
	t.Helper()
	cat := relation.NewCatalog()
	cust, err := cat.CreateTable("CUST", []relation.Column{
		{Name: "city"}, {Name: "areacode"}, {Name: "state"},
	})
	if err != nil {
		t.Fatal(err)
	}
	supp, err := cat.CreateTable("SUPP", []relation.Column{
		{Name: "city"}, {Name: "state"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range custRows {
		cust.Insert(row...)
	}
	for _, row := range suppRows {
		supp.Insert(row...)
	}
	chk := core.New(cat, core.Options{})
	for _, name := range []string{"CUST", "SUPP"} {
		if _, err := chk.BuildIndex(name, name, nil, core.OrderProbConverge); err != nil {
			t.Fatal(err)
		}
	}
	cts, err := logic.ParseConstraints(fixtureRules)
	if err != nil {
		t.Fatal(err)
	}
	return chk, cts
}

// node is one running server: store, service, HTTP listener.
type node struct {
	dir  string
	st   *store.Store
	srv  *service.Server
	hs   *httptest.Server
	once sync.Once
}

func (n *node) URL() string { return n.hs.URL }

// stop shuts the node down: service first (so its tail loop stops polling
// and in-flight long-polls it serves unblock on quit), then the listener,
// then the store. Idempotent, so tests can stop explicitly and still leave
// the cleanup hook in place.
func (n *node) stop() {
	n.once.Do(func() {
		n.srv.Close()
		n.hs.Close()
		n.st.Close()
	})
}

// startLeader builds a fixture checker, seals it as the epoch-1 snapshot in
// a fresh data directory, and serves it. snapshotEvery and retain shape the
// pruning pressure a scenario wants.
func startLeader(t *testing.T, rng *rand.Rand, snapshotEvery, retain int) *node {
	t.Helper()
	chk, cts := buildFixture(t, rng, 250)
	return startLeaderOn(t, chk, cts, snapshotEvery, retain)
}

// startLeaderOn is startLeader over a checker the scenario built itself.
func startLeaderOn(t *testing.T, chk *core.Checker, cts []logic.Constraint, snapshotEvery, retain int) *node {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Fsync: store.FsyncOff, Retain: retain})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(chk, store.RenderConstraints(cts), 1); err != nil {
		st.Close()
		t.Fatal(err)
	}
	srv, err := service.New(chk, cts, service.Options{
		Store:                st,
		SnapshotEveryBatches: snapshotEvery,
		InitialEpoch:         1,
	})
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	n := &node{dir: dir, st: st, srv: srv, hs: httptest.NewServer(srv.Handler())}
	t.Cleanup(n.stop)
	return n
}

// startFollower opens (or reopens) dir as a follower of leaderURL: an empty
// directory bootstraps from the leader's newest snapshot exactly like
// cvserved's boot path, a populated one resumes from its local artifacts.
func startFollower(t *testing.T, leaderURL, dir string, fo service.FollowerOptions) *node {
	t.Helper()
	st, err := store.Open(dir, store.Options{Fsync: store.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if !st.HasSnapshot() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		_, ferr := service.FetchSnapshot(ctx, nil, leaderURL, st)
		cancel()
		if ferr != nil {
			st.Close()
			t.Fatalf("bootstrapping follower from %s: %v", leaderURL, ferr)
		}
	}
	chk, text, info, err := st.Recover(core.Options{})
	if err != nil {
		st.Close()
		t.Fatalf("recovering follower state: %v", err)
	}
	cts, err := logic.ParseConstraints(text)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	epoch := info.LastEpoch
	if epoch == 0 {
		epoch = 1
	}
	fo.URL = leaderURL
	if fo.PollWait == 0 {
		fo.PollWait = 250 * time.Millisecond
	}
	if fo.Backoff == 0 {
		fo.Backoff = 10 * time.Millisecond
	}
	srv, err := service.New(chk, cts, service.Options{
		Store:        st,
		InitialEpoch: epoch,
		Follower:     &fo,
	})
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	n := &node{dir: dir, st: st, srv: srv, hs: httptest.NewServer(srv.Handler())}
	t.Cleanup(n.stop)
	return n
}

// postJSON posts body to base+path and decodes a 200 reply into out (when
// non-nil). It returns the HTTP status so callers can assert refusals.
func postJSON(t *testing.T, base, path string, body, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading reply: %v", path, err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("POST %s: decoding reply %q: %v", path, data, err)
		}
	}
	return resp.StatusCode
}

func getStatsz(t *testing.T, base string) service.StatszResponse {
	t.Helper()
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatalf("GET /statsz: %v", err)
	}
	defer resp.Body.Close()
	var out service.StatszResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET /statsz: %v", err)
	}
	return out
}

// driveUpdates applies batches of random inserts through the leader's
// public /update, each batch also deleting one row it inserted earlier in
// the same batch so both operations replicate without ever targeting an
// absent tuple.
func driveUpdates(t *testing.T, base string, rng *rand.Rand, batches, perBatch int) {
	t.Helper()
	for i := 0; i < batches; i++ {
		ups := make([]service.UpdateTuple, 0, perBatch+1)
		for j := 0; j < perBatch; j++ {
			if rng.Intn(2) == 0 {
				ups = append(ups, service.UpdateTuple{Table: "CUST", Op: "insert", Values: []string{
					cities[rng.Intn(len(cities))], codes[rng.Intn(len(codes))], states[rng.Intn(len(states))]}})
			} else {
				ups = append(ups, service.UpdateTuple{Table: "SUPP", Op: "insert", Values: []string{
					cities[rng.Intn(len(cities))], states[rng.Intn(len(states))]}})
			}
		}
		doomed := ups[rng.Intn(len(ups))]
		ups = append(ups, service.UpdateTuple{Table: doomed.Table, Op: "delete", Values: doomed.Values})
		var ur service.UpdateResponse
		if st := postJSON(t, base, "/update", service.UpdateRequest{Updates: ups}, &ur); st != http.StatusOK {
			t.Fatalf("/update batch %d: status %d", i, st)
		}
		if ur.Error != "" {
			t.Fatalf("/update batch %d: %s", i, ur.Error)
		}
	}
}

// waitFor polls cond until it reports done or the deadline passes.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() (bool, string)) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		ok, detail := cond()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s (last: %s)", what, detail)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitConverged blocks until the follower's applied epoch reaches want.
func waitConverged(t *testing.T, followerURL string, want uint64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("follower to reach epoch %d", want), 20*time.Second, func() (bool, string) {
		st := getStatsz(t, followerURL)
		return st.Epoch >= want, fmt.Sprintf("follower at epoch %d", st.Epoch)
	})
}

// assertSameAnswers holds two servers against each other over their public
// APIs: every registered constraint must carry the same verdict, and every
// violated one the identical witness set (difftest's canonical set diff).
func assertSameAnswers(t *testing.T, leaderURL, followerURL string) {
	t.Helper()
	names := getStatsz(t, leaderURL).Constraints
	if len(names) == 0 {
		t.Fatal("leader registered no constraints")
	}
	req := service.CheckRequest{Constraints: names}
	var lres, fres service.CheckResponse
	if st := postJSON(t, leaderURL, "/check", req, &lres); st != http.StatusOK {
		t.Fatalf("leader /check: status %d", st)
	}
	if st := postJSON(t, followerURL, "/check", req, &fres); st != http.StatusOK {
		t.Fatalf("follower /check: status %d", st)
	}
	verdicts := make(map[string]bool, len(lres.Results))
	for _, r := range lres.Results {
		if r.Error != "" {
			t.Fatalf("leader check %s: %s", r.Name, r.Error)
		}
		verdicts[r.Name] = r.Violated
	}
	for _, r := range fres.Results {
		if r.Error != "" {
			t.Fatalf("follower check %s: %s", r.Name, r.Error)
		}
		want, ok := verdicts[r.Name]
		if !ok {
			t.Fatalf("follower reported unknown constraint %s", r.Name)
		}
		if r.Violated != want {
			t.Fatalf("constraint %s: leader violated=%v, follower violated=%v", r.Name, want, r.Violated)
		}
	}
	for name, violated := range verdicts {
		if !violated {
			continue
		}
		lw := fetchWitnesses(t, leaderURL, name)
		fw := fetchWitnesses(t, followerURL, name)
		if diff := difftest.SetDiff(difftest.WitnessSet(lw), difftest.WitnessSet(fw)); diff != "" {
			t.Fatalf("constraint %s: witness sets differ: %s (leader %d, follower %d)", name, diff, len(lw), len(fw))
		}
	}
}

func fetchWitnesses(t *testing.T, base, constraint string) []core.Witness {
	t.Helper()
	var wr service.WitnessResponse
	if st := postJSON(t, base, "/witnesses", service.WitnessRequest{Constraint: constraint, Limit: 10000}, &wr); st != http.StatusOK {
		t.Fatalf("%s /witnesses(%s): status %d", base, constraint, st)
	}
	out := make([]core.Witness, len(wr.Witnesses))
	for i, w := range wr.Witnesses {
		out[i] = core.Witness{Vars: w.Vars, Values: w.Values}
	}
	return out
}

// faultProxy is a reverse proxy in front of a leader that can corrupt
// snapshot streams: "flip" XORs one byte mid-body (breaking the CRC under
// an honest Content-Length), "truncate" promises the full length but cuts
// the stream halfway. Everything else — and /wal always — passes through.
type faultProxy struct {
	hs *httptest.Server

	mu     sync.Mutex
	target string
	mode   string // "", "flip" or "truncate"
	left   int    // corruptions remaining; negative means every time
}

func newFaultProxy(t *testing.T, target string) *faultProxy {
	p := &faultProxy{target: target}
	p.hs = httptest.NewServer(http.HandlerFunc(p.serve))
	t.Cleanup(p.hs.Close)
	return p
}

func (p *faultProxy) URL() string { return p.hs.URL }

// retarget points the proxy at another leader: what a follower meets when
// the address it tails is handed to a different database.
func (p *faultProxy) retarget(target string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.target = target
}

// corrupt arms the proxy: the next n snapshot responses (all of them when
// n < 0) are damaged with mode. corrupt("", 0) disarms it.
func (p *faultProxy) corrupt(mode string, n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.mode, p.left = mode, n
}

// takeFault consumes one armed corruption for a snapshot request.
func (p *faultProxy) takeFault(path string) string {
	if !strings.HasPrefix(path, "/snapshot/") {
		return ""
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.mode == "" || p.left == 0 {
		return ""
	}
	if p.left > 0 {
		p.left--
	}
	return p.mode
}

func (p *faultProxy) serve(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	target := p.target
	p.mu.Unlock()
	req, err := http.NewRequestWithContext(r.Context(), r.Method, target+r.URL.RequestURI(), r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	fault := p.takeFault(r.URL.Path)
	if fault == "flip" && len(body) > 0 {
		body[len(body)/2] ^= 0x01
	}
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(resp.StatusCode)
	if fault == "truncate" && len(body) > 1 {
		// Promise the full body, deliver half: the connection dies short and
		// the client's verified install sees fewer bytes than declared.
		w.Write(body[:len(body)/2])
		return
	}
	w.Write(body)
}
