package repltest

// repl_test.go is the scenario suite: each test stands up a real leader (and
// usually a real follower) and injects one class of fault the replication
// design claims to survive, always ending in the same two assertions —
// epochs converge and the public APIs answer identically.

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/store"
)

// TestFollowerConvergesAndServesIdenticalAnswers is the happy path: a
// follower bootstraps from a live leader's snapshot, tails its WAL, and
// must answer /check and /witnesses exactly like the leader — both for the
// bootstrapped state and for batches that arrive while it is tailing. It
// also pins the write refusal (421 naming the leader) and that reads keep
// working after the leader goes away.
func TestFollowerConvergesAndServesIdenticalAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	leader := startLeader(t, rng, 1000, 4)
	driveUpdates(t, leader.URL(), rng, 5, 8)

	fol := startFollower(t, leader.URL(), t.TempDir(), service.FollowerOptions{})
	waitConverged(t, fol.URL(), getStatsz(t, leader.URL()).Epoch)
	assertSameAnswers(t, leader.URL(), fol.URL())

	// New batches must flow through the tail path, not just the bootstrap.
	driveUpdates(t, leader.URL(), rng, 5, 8)
	waitConverged(t, fol.URL(), getStatsz(t, leader.URL()).Epoch)
	assertSameAnswers(t, leader.URL(), fol.URL())

	fs := getStatsz(t, fol.URL()).Follower
	if fs == nil {
		t.Fatal("follower /statsz has no follower block")
	}
	if fs.TailRecords == 0 {
		t.Fatalf("follower applied %d batches but reports zero tailed records", 10)
	}

	// Writes are refused with 421, naming the leader.
	b, err := json.Marshal(service.UpdateRequest{Updates: []service.UpdateTuple{
		{Table: "CUST", Op: "insert", Values: []string{"Newark", "973", "NJ"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(fol.URL()+"/update", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("follower /update: status %d, want %d", resp.StatusCode, http.StatusMisdirectedRequest)
	}
	if got := resp.Header.Get(service.HeaderLeader); got != leader.URL() {
		t.Fatalf("follower /update %s header = %q, want %q", service.HeaderLeader, got, leader.URL())
	}

	// The leader dying must not take reads down with it.
	leader.stop()
	var cr service.CheckResponse
	if st := postJSON(t, fol.URL(), "/check", service.CheckRequest{Constraints: []string{"nj_codes"}}, &cr); st != http.StatusOK {
		t.Fatalf("follower /check after leader death: status %d", st)
	}
	if len(cr.Results) != 1 || cr.Results[0].Error != "" {
		t.Fatalf("follower /check after leader death: %+v", cr.Results)
	}
}

// TestFollowerRestartResumesFromLocalWAL kills a follower mid-stream and
// restarts it over the same data directory: the local snapshot + WAL must
// carry it back to its last applied epoch with no snapshot refetch, and
// tailing resumes from there.
func TestFollowerRestartResumesFromLocalWAL(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	leader := startLeader(t, rng, 1000, 4)
	driveUpdates(t, leader.URL(), rng, 4, 6)

	dir := t.TempDir()
	fol := startFollower(t, leader.URL(), dir, service.FollowerOptions{})
	waitConverged(t, fol.URL(), getStatsz(t, leader.URL()).Epoch)
	fol.stop()

	// The leader moves on while the follower is down.
	driveUpdates(t, leader.URL(), rng, 4, 6)

	fol2 := startFollower(t, leader.URL(), dir, service.FollowerOptions{})
	waitConverged(t, fol2.URL(), getStatsz(t, leader.URL()).Epoch)
	fs := getStatsz(t, fol2.URL()).Follower
	if fs == nil {
		t.Fatal("restarted follower /statsz has no follower block")
	}
	if fs.SnapshotFetches != 0 {
		t.Fatalf("restart fetched %d snapshots; a local WAL resume needs none", fs.SnapshotFetches)
	}
	if fs.Rebootstraps != 0 {
		t.Fatalf("restart re-bootstrapped %d times; the local log was intact", fs.Rebootstraps)
	}
	assertSameAnswers(t, leader.URL(), fol2.URL())
}

// TestSnapshotCorruptionDetectedAndRefetched streams the bootstrap snapshot
// through a proxy that byte-flips or truncates it: both damaged streams
// must be rejected without installing anything, and a clean refetch through
// the same proxy must bootstrap a follower that converges normally.
func TestSnapshotCorruptionDetectedAndRefetched(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	leader := startLeader(t, rng, 1000, 4)
	driveUpdates(t, leader.URL(), rng, 3, 6)
	proxy := newFaultProxy(t, leader.URL())

	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Fsync: store.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, mode := range []string{"flip", "truncate"} {
		proxy.corrupt(mode, -1)
		if _, err := service.FetchSnapshot(ctx, nil, proxy.URL(), st); err == nil {
			t.Fatalf("%s-damaged snapshot stream was accepted", mode)
		}
		if st.HasSnapshot() {
			t.Fatalf("%s-damaged snapshot stream left an installed snapshot behind", mode)
		}
	}
	proxy.corrupt("", 0)
	epoch, err := service.FetchSnapshot(ctx, nil, proxy.URL(), st)
	if err != nil {
		t.Fatalf("clean refetch after corruption: %v", err)
	}
	if epoch == 0 || !st.HasSnapshot() {
		t.Fatalf("clean refetch installed nothing (epoch %d)", epoch)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	fol := startFollower(t, proxy.URL(), dir, service.FollowerOptions{})
	waitConverged(t, fol.URL(), getStatsz(t, leader.URL()).Epoch)
	assertSameAnswers(t, leader.URL(), fol.URL())
}

// TestLeaderPruneForces410Rebootstrap parks a follower, lets an aggressively
// pruning leader (snapshot every batch, retain one) advance past its WAL
// position, and restarts it: the leader answers its tail with 410, forcing
// a snapshot re-bootstrap — whose first fetch the proxy corrupts, so the
// retry path runs too — after which the follower must converge.
func TestLeaderPruneForces410Rebootstrap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	leader := startLeader(t, rng, 1, 1)
	proxy := newFaultProxy(t, leader.URL())

	dir := t.TempDir()
	fol := startFollower(t, proxy.URL(), dir, service.FollowerOptions{})
	waitConverged(t, fol.URL(), getStatsz(t, leader.URL()).Epoch)
	fol.stop()

	// Every batch seals a snapshot and resets the WAL; with one snapshot
	// retained, three batches leave nothing the parked follower could tail.
	driveUpdates(t, leader.URL(), rng, 3, 5)

	proxy.corrupt("flip", 1)
	fol2 := startFollower(t, proxy.URL(), dir, service.FollowerOptions{})
	waitConverged(t, fol2.URL(), getStatsz(t, leader.URL()).Epoch)

	fs := getStatsz(t, fol2.URL()).Follower
	if fs == nil {
		t.Fatal("follower /statsz has no follower block")
	}
	if fs.Rebootstraps == 0 {
		t.Fatal("pruned leader did not force a re-bootstrap")
	}
	if fs.SnapshotFetchFailures == 0 {
		t.Fatal("corrupted re-bootstrap fetch was not counted as a failure")
	}
	if fs.SnapshotFetches <= fs.SnapshotFetchFailures {
		t.Fatalf("no successful snapshot fetch (%d fetches, %d failures)", fs.SnapshotFetches, fs.SnapshotFetchFailures)
	}
	assertSameAnswers(t, leader.URL(), fol2.URL())
}

// TestRebootstrapOntoOtherDataDropsMemoisedVerdicts retargets a tailing
// follower at a leader over different data whose log starts past the
// follower's position: the 410 forces a re-bootstrap that replaces the
// follower's catalog wholesale. The two datasets have the same row counts, so
// the recovered tables carry the same version counters the old ones did —
// the verdict memo's key — while every verdict differs: whatever the follower
// memoised about the first database must not answer for the second.
func TestRebootstrapOntoOtherDataDropsMemoisedVerdicts(t *testing.T) {
	const nRows = 250
	dirty := startLeader(t, rand.New(rand.NewSource(6)), 1000, 4)

	cleanCust := [][]string{
		{"Toronto", "416", "Ontario"}, {"Toronto", "647", "Ontario"}, {"Oshawa", "905", "Ontario"},
		{"Newark", "973", "NJ"}, {"Trenton", "201", "NJ"}, {"Buffalo", "716", "NY"}, {"Albany", "518", "NY"},
	}
	cleanSupp := [][]string{{"Toronto", "Ontario"}, {"Newark", "NJ"}, {"Buffalo", "NY"}}
	cust := make([][]string, nRows)
	for i := range cust {
		cust[i] = cleanCust[i%len(cleanCust)]
	}
	supp := make([][]string, nRows/2)
	for i := range supp {
		supp[i] = cleanSupp[i%len(cleanSupp)]
	}
	chk, cts := buildFixtureRows(t, cust, supp)
	clean := startLeaderOn(t, chk, cts, 1, 1)
	// One batch that leaves the rows as they were, sealed as the epoch-2
	// snapshot: nothing at or below epoch 1 is left to tail.
	row := service.UpdateTuple{Table: "CUST", Op: "insert", Values: cleanCust[0]}
	gone := row
	gone.Op = "delete"
	if st := postJSON(t, clean.URL(), "/update", service.UpdateRequest{Updates: []service.UpdateTuple{row, gone}}, nil); st != http.StatusOK {
		t.Fatalf("/update on the clean leader: status %d", st)
	}

	proxy := newFaultProxy(t, dirty.URL())
	fol := startFollower(t, proxy.URL(), t.TempDir(), service.FollowerOptions{})
	waitFor(t, "follower to tail the first leader", 20*time.Second, func() (bool, string) {
		fs := getStatsz(t, fol.URL()).Follower
		return fs != nil && fs.State == "tailing", "not tailing"
	})
	assertSameAnswers(t, dirty.URL(), fol.URL())
	var cr service.CheckResponse
	if st := postJSON(t, fol.URL(), "/check", service.CheckRequest{}, &cr); st != http.StatusOK {
		t.Fatalf("follower /check: status %d", st)
	}
	violated := 0
	for _, r := range cr.Results {
		if r.Violated {
			violated++
		}
	}
	if hits := getStatsz(t, fol.URL()).Checker.MemoHits; violated == 0 || hits < uint64(len(cr.Results)) {
		t.Fatalf("scenario is vacuous: %d violated verdicts, %d memo hits on the first database", violated, hits)
	}

	proxy.retarget(clean.URL())
	waitFor(t, "follower to re-bootstrap onto the second leader", 20*time.Second, func() (bool, string) {
		st := getStatsz(t, fol.URL())
		return st.Follower.Rebootstraps > 0 && st.Epoch == 2 && st.Follower.State == "tailing", st.Follower.State
	})
	if st := postJSON(t, fol.URL(), "/check", service.CheckRequest{}, &cr); st != http.StatusOK {
		t.Fatalf("follower /check: status %d", st)
	}
	for _, r := range cr.Results {
		if r.Violated || r.Error != "" {
			t.Errorf("%s on the clean database: %+v", r.Name, r)
		}
	}
	assertSameAnswers(t, clean.URL(), fol.URL())
}

// TestMaxLagStalenessRefusal pins the staleness contract with a stub leader
// that reports a far-future epoch while handing out batches the follower
// cannot apply (and no snapshot to re-bootstrap from): live reads must be
// refused with 503 once the lag bound is crossed, while historical
// point-in-time reads keep answering from retained epochs.
func TestMaxLagStalenessRefusal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	chk, cts := buildFixture(t, rng, 200)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Fsync: store.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(chk, store.RenderConstraints(cts), 1); err != nil {
		t.Fatal(err)
	}
	// One applied epoch past the snapshot, so epoch 1 is a historical read
	// (?epoch= at the current epoch counts as live) once the follower boots.
	if err := st.AppendBatch(2, []core.Update{
		{Table: "CUST", Op: core.UpdateInsert, Values: []string{"Newark", "973", "NJ"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/wal":
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(service.WALTailResponse{
				From:  2,
				Epoch: 99,
				Batches: []service.WALBatch{{Epoch: 7, Updates: []service.UpdateTuple{
					{Table: "NOSUCH", Op: "insert", Values: []string{"x"}},
				}}},
			})
		default:
			http.Error(w, "stub leader has nothing else", http.StatusInternalServerError)
		}
	}))
	t.Cleanup(stub.Close)

	fol := startFollower(t, stub.URL, dir, service.FollowerOptions{MaxLag: 3})
	waitFor(t, "follower to observe the stub leader's epoch", 20*time.Second, func() (bool, string) {
		fs := getStatsz(t, fol.URL()).Follower
		if fs == nil {
			return false, "no follower block"
		}
		return fs.LeaderEpoch == 99, fs.State
	})

	req := service.CheckRequest{Constraints: []string{"nj_codes"}}
	if st := postJSON(t, fol.URL(), "/check", req, nil); st != http.StatusServiceUnavailable {
		t.Fatalf("live /check on a stale follower: status %d, want 503", st)
	}
	wreq := service.WitnessRequest{Constraint: "nj_codes", Limit: 10}
	if st := postJSON(t, fol.URL(), "/witnesses", wreq, nil); st != http.StatusServiceUnavailable {
		t.Fatalf("live /witnesses on a stale follower: status %d, want 503", st)
	}
	var cr service.CheckResponse
	if st := postJSON(t, fol.URL(), "/check?epoch=1", req, &cr); st != http.StatusOK {
		t.Fatalf("historical /check?epoch=1 on a stale follower: status %d, want 200", st)
	}
	if cr.Epoch != 1 || len(cr.Results) != 1 || cr.Results[0].Error != "" {
		t.Fatalf("historical /check?epoch=1: %+v", cr)
	}
}
