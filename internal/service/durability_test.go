package service_test

// durability_test.go exercises the service-level durability path end to
// end over HTTP: updates are WAL-logged before acknowledgment, a restarted
// server recovers every acknowledged batch with identical verdicts, and
// ?epoch=N serves point-in-time reads at retained epochs.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/service"
	"repro/internal/store"
)

// newDurableServer builds the standard fixture on top of an opened store,
// sealing the initial state as the epoch-1 snapshot the way cvserved's cold
// boot does.
func newDurableServer(t *testing.T, st *store.Store, opts service.Options) (*service.Server, *httptest.Server) {
	t.Helper()
	opts.Store = st
	return newFixtureServer(t, testRules, opts)
}

// reopenServer recovers the checker and constraints from the data directory
// (no CSV, no table rebuild) and serves them, as cvserved's warm boot does.
func reopenServer(t *testing.T, dir string, opts service.Options) (*service.Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chk, text, info, err := st.Recover(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cts, err := logic.ParseConstraints(text)
	if err != nil {
		t.Fatalf("recovered constraint text does not parse: %v\n%s", err, text)
	}
	opts.Store = st
	opts.InitialEpoch = info.LastEpoch
	srv, err := service.New(chk, cts, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		st.Close()
	})
	return srv, ts
}

func checkVerdicts(t *testing.T, url string) map[string]bool {
	t.Helper()
	var resp service.CheckResponse
	if status := post(t, url+"/check", service.CheckRequest{}, &resp); status != http.StatusOK {
		t.Fatalf("/check status %d", status)
	}
	out := make(map[string]bool)
	for name, r := range resultsByName(t, resp) {
		out[name] = r.Violated
	}
	return out
}

// TestRestartRecoversAcknowledgedUpdates acknowledges update batches, tears
// the server down without a snapshot of the new state (WAL only), reopens
// from the directory, and demands identical verdicts — plus durable epochs
// on /statsz across the restart.
func TestRestartRecoversAcknowledgedUpdates(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// SnapshotEveryBatches large: the updates below stay WAL-only, so the
	// restart exercises replay, not just snapshot restore.
	srv, ts := newDurableServer(t, st, service.Options{SnapshotEveryBatches: 1000})

	before := checkVerdicts(t, ts.URL)
	if !before["nj_codes"] || before["toronto_ontario"] {
		t.Fatalf("unexpected seed verdicts: %v", before)
	}

	// Repair nj_codes (delete the offending row) and break toronto_ontario.
	batches := [][]service.UpdateTuple{
		{{Table: "CUST", Op: "delete", Values: []string{"Newark", "416", "NJ"}}},
		{{Table: "CUST", Op: "insert", Values: []string{"Toronto", "973", "NJ"}}},
	}
	for _, b := range batches {
		var ur service.UpdateResponse
		if status := post(t, ts.URL+"/update", service.UpdateRequest{Updates: b}, &ur); status != http.StatusOK {
			t.Fatalf("/update status %d: %s", status, ur.Error)
		}
	}
	want := checkVerdicts(t, ts.URL)
	if want["nj_codes"] || !want["toronto_ontario"] {
		t.Fatalf("unexpected post-update verdicts: %v", want)
	}
	var stats service.StatszResponse
	if status := get(t, ts.URL+"/statsz", &stats); status != http.StatusOK {
		t.Fatalf("/statsz status %d", status)
	}
	if stats.Epoch != 3 {
		t.Fatalf("epoch after 2 acked batches = %d, want 3", stats.Epoch)
	}
	if stats.Durability == nil || stats.Durability.WALAppends != 2 {
		t.Fatalf("durability stats = %+v, want 2 WAL appends", stats.Durability)
	}

	ts.Close()
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts2 := reopenServer(t, dir, service.Options{})
	got := checkVerdicts(t, ts2.URL)
	for name, v := range want {
		if got[name] != v {
			t.Errorf("recovered verdict %s = %v, want %v", name, got[name], v)
		}
	}
	var stats2 service.StatszResponse
	if status := get(t, ts2.URL+"/statsz", &stats2); status != http.StatusOK {
		t.Fatalf("/statsz status %d", status)
	}
	if stats2.Epoch != 3 {
		t.Fatalf("recovered epoch = %d, want 3", stats2.Epoch)
	}
	if stats2.Durability == nil || stats2.Durability.ReplayedRecords != 2 {
		t.Fatalf("recovery stats = %+v, want 2 replayed records", stats2.Durability)
	}
}

// TestUnloggedUpdateIsNotAcknowledged pins log-before-ack: with the WAL
// closed under the running server, an update cannot be logged, and neither
// Backend.Update nor POST /update may acknowledge it. An ack sent before the
// append would carry no error. Nor may the refused batch take effect: the
// epoch stays where it was and no check sees the row, so an epoch number
// never names data that is not in the log.
func TestUnloggedUpdateIsNotAcknowledged(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newDurableServer(t, st, service.Options{SnapshotEveryBatches: 1000})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	epoch := srv.CurrentEpoch()
	row := []string{"Toronto", "416", "NJ"}
	ups := []core.Update{{Table: "CUST", Op: core.UpdateInsert, Values: row}}
	if applied, err := srv.Update(context.Background(), ups, nil); err == nil {
		t.Fatalf("Backend.Update acknowledged %d tuples its WAL append lost", applied)
	}
	var ur service.UpdateResponse
	status := post(t, ts.URL+"/update", service.UpdateRequest{Updates: []service.UpdateTuple{
		{Table: "CUST", Op: "insert", Values: row},
	}}, &ur)
	if status/100 == 2 || ur.Error == "" {
		t.Fatalf("POST /update acknowledged an unlogged batch: status %d, %+v", status, ur)
	}
	if got := srv.CurrentEpoch(); got != epoch {
		t.Errorf("epoch moved from %d to %d on batches the WAL refused", epoch, got)
	}
	if checkVerdicts(t, ts.URL)["toronto_ontario"] {
		t.Error("/check sees the unlogged Toronto/NJ row: toronto_ontario is violated")
	}
}

// TestFollowerStaysAtItsLastLoggedEpoch pins log-before-advance on a
// follower: with its WAL closed, a tailed epoch applies but cannot be
// logged, and the follower must stay at the epoch it last logged. The fake
// leader serves one record and no snapshot, so no re-bootstrap resets the
// epoch before the test reads it.
func TestFollowerStaysAtItsLastLoggedEpoch(t *testing.T) {
	ready := make(chan struct{})
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/wal" {
			http.Error(w, "no snapshot", http.StatusServiceUnavailable)
			return
		}
		select {
		case <-ready:
		case <-r.Context().Done():
			return
		}
		json.NewEncoder(w).Encode(service.WALTailResponse{From: 1, Epoch: 2, Batches: []service.WALBatch{{
			Epoch: 2, Updates: []service.UpdateTuple{{Table: "CUST", Op: "insert", Values: []string{"Toronto", "416", "NJ"}}},
		}}})
	}))
	t.Cleanup(leader.Close)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fol, _ := newFixtureServer(t, testRules, service.Options{
		Store:    st,
		Follower: &service.FollowerOptions{URL: leader.URL, PollWait: 100 * time.Millisecond, Backoff: 10 * time.Millisecond},
	})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	close(ready)
	// A failed snapshot fetch comes after the failed tail it re-bootstraps from.
	for deadline := time.Now().Add(10 * time.Second); fol.Stats().Follower.SnapshotFetchFailures == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the follower never tried to re-bootstrap")
		}
		time.Sleep(time.Millisecond)
	}
	if got := fol.CurrentEpoch(); got != 1 {
		t.Fatalf("follower advanced to epoch %d, whose record its WAL never took", got)
	}
}

// TestEpochReadsOverHTTP walks ?epoch=N through the fixture's history:
// epoch 1 (initial snapshot), epoch 2 (WAL replay on top), the live epoch,
// a future epoch (404) and a malformed value (400).
func TestEpochReadsOverHTTP(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newDurableServer(t, st, service.Options{SnapshotEveryBatches: 1000})

	batches := [][]service.UpdateTuple{
		{{Table: "CUST", Op: "delete", Values: []string{"Newark", "416", "NJ"}}},  // epoch 2: nj_codes repaired
		{{Table: "CUST", Op: "insert", Values: []string{"Toronto", "973", "NJ"}}}, // epoch 3: toronto broken
	}
	for _, b := range batches {
		var ur service.UpdateResponse
		if status := post(t, ts.URL+"/update", service.UpdateRequest{Updates: b}, &ur); status != http.StatusOK {
			t.Fatalf("/update status %d: %s", status, ur.Error)
		}
	}

	wantByEpoch := map[uint64]map[string]bool{
		1: {"nj_codes": true, "toronto_ontario": false},
		2: {"nj_codes": false, "toronto_ontario": false},
		3: {"nj_codes": false, "toronto_ontario": true},
	}
	for epoch, want := range wantByEpoch {
		var resp service.CheckResponse
		url := fmt.Sprintf("%s/check?epoch=%d", ts.URL, epoch)
		if status := post(t, url, service.CheckRequest{}, &resp); status != http.StatusOK {
			t.Fatalf("epoch %d status %d", epoch, status)
		}
		if resp.Epoch != epoch {
			t.Errorf("epoch %d reply reports epoch %d", epoch, resp.Epoch)
		}
		for name, r := range resultsByName(t, resp) {
			if r.Violated != want[name] {
				t.Errorf("epoch %d: %s violated=%v, want %v", epoch, name, r.Violated, want[name])
			}
		}
	}

	// Repeat an epoch to go through the materialization cache.
	var resp service.CheckResponse
	if status := post(t, ts.URL+"/check?epoch=1", service.CheckRequest{}, &resp); status != http.StatusOK {
		t.Fatalf("cached epoch read status %d", status)
	}
	if got := resultsByName(t, resp); !got["nj_codes"].Violated {
		t.Errorf("cached epoch 1 read lost the nj_codes violation")
	}

	if status := post(t, ts.URL+"/check?epoch=99", service.CheckRequest{}, nil); status != http.StatusNotFound {
		t.Errorf("future epoch status = %d, want 404", status)
	}
	if status := post(t, ts.URL+"/check?epoch=bogus", service.CheckRequest{}, nil); status != http.StatusBadRequest {
		t.Errorf("malformed epoch status = %d, want 400", status)
	}
}

// TestEpochReadWithoutStoreRejected pins the no-data-dir behavior: ?epoch=N
// for a non-live epoch is a 400, and responses carry no epoch field.
func TestEpochReadWithoutStoreRejected(t *testing.T) {
	_, ts := newTestServer(t, service.Options{})
	var resp service.CheckResponse
	if status := post(t, ts.URL+"/check", service.CheckRequest{}, &resp); status != http.StatusOK {
		t.Fatalf("/check status %d", status)
	}
	if resp.Epoch != 0 {
		t.Errorf("epoch without store = %d, want 0", resp.Epoch)
	}
	if status := post(t, ts.URL+"/check?epoch=1", service.CheckRequest{}, nil); status != http.StatusBadRequest {
		t.Errorf("historical epoch without store status = %d, want 400", status)
	}
}

// TestSnapshotTriggerByBatchCount drives enough batches through the batch
// trigger to seal snapshots, then asserts pruned epochs answer 410.
func TestSnapshotTriggerByBatchCount(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newDurableServer(t, st, service.Options{SnapshotEveryBatches: 1})

	// Rows recombine existing domain values: the index block widths were
	// sized at build time, so a novel value would be rejected.
	rows := [][]string{
		{"Oshawa", "416", "Ontario"},
		{"Oshawa", "647", "Ontario"},
		{"Newark", "905", "Ontario"},
		{"Toronto", "973", "Ontario"},
		{"Oshawa", "973", "Ontario"},
	}
	for _, row := range rows {
		b := []service.UpdateTuple{{Table: "CUST", Op: "insert", Values: row}}
		var ur service.UpdateResponse
		if status := post(t, ts.URL+"/update", service.UpdateRequest{Updates: b}, &ur); status != http.StatusOK {
			t.Fatalf("/update status %d: %s", status, ur.Error)
		}
	}
	var stats service.StatszResponse
	if status := get(t, ts.URL+"/statsz", &stats); status != http.StatusOK {
		t.Fatalf("/statsz status %d", status)
	}
	if stats.Durability == nil || stats.Durability.Snapshots != 2 {
		t.Fatalf("durability stats = %+v, want 2 retained snapshots", stats.Durability)
	}
	if got := stats.Durability.LastSnapshotEpoch; got != 6 {
		t.Fatalf("last snapshot epoch = %d, want 6", got)
	}

	// Retained snapshot epochs answer; a pruned one is Gone.
	if status := post(t, ts.URL+"/check?epoch=6", service.CheckRequest{}, nil); status != http.StatusOK {
		t.Errorf("retained epoch status = %d, want 200", status)
	}
	if status := post(t, ts.URL+"/check?epoch=2", service.CheckRequest{}, nil); status != http.StatusGone {
		t.Errorf("pruned epoch status = %d, want 410", status)
	}
}

// TestStatszNodeCountsAreTakenAtSnapshots pins where /statsz's index node
// counts come from: the boot count, held across a round that writes no
// snapshot, and recounted when a snapshot seals an epoch, where they equal
// the counts of the checker that snapshot restores.
func TestStatszNodeCountsAreTakenAtSnapshots(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newDurableServer(t, st, service.Options{SnapshotEveryBatches: 2})
	boot := statsOf(t, ts.URL)
	if boot.IndexNodesEpoch != boot.Epoch || len(boot.Indices) != 1 || boot.Indices[0].Nodes <= 0 {
		t.Fatalf("boot: epoch %d, index_nodes_epoch %d, indices %+v", boot.Epoch, boot.IndexNodesEpoch, boot.Indices)
	}
	if st, ur := update(t, ts.URL, service.UpdateTuple{Table: "CUST", Op: "insert", Values: []string{"Oshawa", "416", "Ontario"}}); st != http.StatusOK {
		t.Fatalf("/update status %d: %s", st, ur.Error)
	}
	held := statsOf(t, ts.URL)
	if held.Epoch != boot.Epoch+1 || held.IndexNodesEpoch != boot.Epoch || held.Indices[0].Nodes != boot.Indices[0].Nodes {
		t.Fatalf("after a round without a snapshot: epoch %d, index_nodes_epoch %d, nodes %d; want %d, %d, %d",
			held.Epoch, held.IndexNodesEpoch, held.Indices[0].Nodes, boot.Epoch+1, boot.Epoch, boot.Indices[0].Nodes)
	}
	if st, ur := update(t, ts.URL, service.UpdateTuple{Table: "CUST", Op: "insert", Values: []string{"Newark", "905", "Ontario"}}); st != http.StatusOK {
		t.Fatalf("/update status %d: %s", st, ur.Error)
	}
	sealed := statsOf(t, ts.URL)
	e := sealed.Durability.LastSnapshotEpoch
	if e != boot.Epoch+2 || sealed.IndexNodesEpoch != e {
		t.Fatalf("after the snapshot round: last snapshot %d, index_nodes_epoch %d; want both %d", e, sealed.IndexNodesEpoch, boot.Epoch+2)
	}
	chk, err := st.CheckerAt(e, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := chk.NodeCounts()["CUST"]
	if sealed.Indices[0].Nodes != want || want == boot.Indices[0].Nodes {
		t.Fatalf("nodes at epoch %d = %d, the restored index has %d (boot %d)", e, sealed.Indices[0].Nodes, want, boot.Indices[0].Nodes)
	}
}
