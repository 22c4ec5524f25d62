package service_test

// close_test.go checks that every owner loop stops on Close: the service
// worker (run) on a leader, the follower's tail loop (tailLoop), and the
// shard coordinator's writer (loop). The file sorts first so these run
// before any other test's Close can wedge on a loop that ignores shutdown.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/logic"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/store"
)

// closeDeadline is how long Close may take before its owner loop counts as
// leaked.
const closeDeadline = 10 * time.Second

// closeWithin runs closeFn and ends the test binary, naming loop, if it has
// not returned within closeDeadline. A loop that ignores shutdown wedges
// every later Close in the binary too, this test's cleanups included, so
// failing only this test would leave go test's 10-minute timeout to report
// it, naming a different test. The panic comes from the timer's goroutine,
// where the testing package cannot recover it and run those cleanups.
func closeWithin(t *testing.T, loop string, closeFn func()) {
	name := t.Name()
	timer := time.AfterFunc(closeDeadline, func() {
		panic(fmt.Sprintf("%s: Close did not return within %v: %s ignores shutdown", name, closeDeadline, loop))
	})
	closeFn()
	timer.Stop()
}

func TestCloseStopsLeaderWorker(t *testing.T) {
	srv, ts := newTestServer(t, service.Options{})
	var ur service.UpdateResponse
	post(t, ts.URL+"/update", service.UpdateRequest{Updates: []service.UpdateTuple{
		{Table: "CUST", Op: "insert", Values: []string{"Oshawa", "905", "Ontario"}},
	}}, &ur)
	closeWithin(t, "(*Server).run", srv.Close)
}

func TestCloseStopsFollowerTailLoop(t *testing.T) {
	openStore := func() *store.Store {
		st, err := store.Open(t.TempDir(), store.Options{Fsync: store.FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	_, leader := newDurableServer(t, openStore(), service.Options{})
	// The follower starts from the same fixture as the leader and tails
	// its quiet WAL, so once it has polled, Close lands in a long-poll or
	// between two.
	fol, _ := newFixtureServer(t, testRules, service.Options{
		Store:    openStore(),
		Follower: &service.FollowerOptions{URL: leader.URL, PollWait: 100 * time.Millisecond, Backoff: 10 * time.Millisecond},
	})
	for deadline := time.Now().Add(closeDeadline); fol.Stats().Follower.TailPolls == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the follower never polled its leader")
		}
		time.Sleep(5 * time.Millisecond)
	}
	closeWithin(t, "(*Server).tailLoop", fol.Close)
}

func TestCloseStopsCoordinatorLoop(t *testing.T) {
	cat := fixtureCatalog(t)
	cts, err := logic.ParseConstraints(testRules)
	if err != nil {
		t.Fatal(err)
	}
	part, err := shard.NewPartitioner(cat, shard.Key{Table: "CUST", Column: "city"}, 2, shard.HashMode, nil)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := shard.NewInProcess(cat, cts, part, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	closeWithin(t, "(*Coordinator).loop", coord.Close)
}
