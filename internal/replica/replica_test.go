package replica_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/replica"
)

const testRules = `
	constraint nj_codes:
	    forall c, a: CUST(c, a, "NJ") => a in {"201", "973", "908"}.
`

func newPrimary(t *testing.T) (*core.Checker, logic.Constraint) {
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
		{"Oshawa", "905", "Ontario"},
		{"Newark", "973", "NJ"},
	} {
		cust.Insert(row...)
	}
	chk := core.New(cat, core.Options{})
	if _, err := chk.BuildIndex("CUST", "CUST", nil, core.OrderProbConverge); err != nil {
		t.Fatal(err)
	}
	cts, err := logic.ParseConstraints(testRules)
	if err != nil {
		t.Fatal(err)
	}
	return chk, cts[0]
}

func TestVersionIsFrozenAgainstPrimaryWrites(t *testing.T) {
	primary, ct := newPrimary(t)
	v, err := replica.NewVersion(primary, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := replica.New(1, v)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Violate the constraint on the primary after freezing.
	if _, err := primary.Apply([]core.Update{{Table: "CUST", Op: core.UpdateInsert, Values: []string{"Newark", "416", "NJ"}}}); err != nil {
		t.Fatal(err)
	}
	var res core.Result
	if err := pool.Do(context.Background(), func(chk *core.Checker, epoch uint64) {
		if epoch != 1 {
			t.Errorf("epoch = %d, want 1", epoch)
		}
		res = chk.CheckOneOpts(ct, core.CheckOptions{NoSQLFallback: true})
	}); err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || res.Violated {
		t.Fatalf("replica at epoch 1 must not see the later write: %+v", res)
	}
	if !primary.CheckOne(ct).Violated {
		t.Fatal("primary must see its own write")
	}

	// After publishing a fresh version the next job sees the write.
	v2, err := replica.NewVersion(primary, 2)
	if err != nil {
		t.Fatal(err)
	}
	pool.Publish(v2)
	if err := pool.Do(context.Background(), func(chk *core.Checker, epoch uint64) {
		if epoch != 2 {
			t.Errorf("epoch = %d, want 2", epoch)
		}
		res = chk.CheckOneOpts(ct, core.CheckOptions{NoSQLFallback: true})
	}); err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || !res.Violated {
		t.Fatalf("replica at epoch 2 must see the write: %+v", res)
	}
}

// TestConcurrentChecksThroughEpochHandoffs is the -race acceptance test: a
// single owner goroutine keeps mutating the primary and publishing new
// versions while concurrent readers drive ≥ 2 replicas through several
// epoch handoffs. Every observed result must be consistent with some
// published epoch: the constraint is violated exactly at odd epochs.
func TestConcurrentChecksThroughEpochHandoffs(t *testing.T) {
	primary, ct := newPrimary(t)
	v, err := replica.NewVersion(primary, 1)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 2
	pool, err := replica.New(workers, v)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Size() != workers {
		t.Fatalf("pool size %d, want %d", pool.Size(), workers)
	}

	// Epoch e > 1 is published after toggling the violating tuple: present
	// (violated) when e is even, absent when odd. Epoch 1 is clean.
	violatedAt := func(epoch uint64) bool { return epoch%2 == 0 }

	var epochsSeen sync.Map
	var checks atomic.Uint64
	check := func(chk *core.Checker, epoch uint64) {
		res := chk.CheckOneOpts(ct, core.CheckOptions{NoSQLFallback: true})
		if res.Err != nil {
			t.Errorf("replica check at epoch %d: %v", epoch, res.Err)
			return
		}
		if res.Violated != violatedAt(epoch) {
			t.Errorf("epoch %d: violated=%v, want %v", epoch, res.Violated, violatedAt(epoch))
		}
		epochsSeen.Store(epoch, true)
		checks.Add(1)
	}

	// The owner: toggle the violation, freeze, publish — 8 handoffs. Each
	// round launches a bounded burst of concurrent readers *before*
	// publishing, so in-flight reads race the handoff, then confirms the
	// epoch once the burst drains. Readers are bounded rather than
	// free-running: unbounded resubmission loops can starve the owner for
	// minutes on a single CPU (the real write path never has this problem —
	// it only Publishes, which is wait-free).
	for epoch := uint64(2); epoch <= 9; epoch++ {
		if violatedAt(epoch) {
			if _, err := primary.Apply([]core.Update{{Table: "CUST", Op: core.UpdateInsert, Values: []string{"Newark", "416", "NJ"}}}); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := primary.Apply([]core.Update{{Table: "CUST", Op: core.UpdateDelete, Values: []string{"Newark", "416", "NJ"}}}); err != nil {
				t.Fatal(err)
			}
		}
		nv, err := replica.NewVersion(primary, epoch)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					if err := pool.Do(context.Background(), check); err != nil {
						t.Errorf("Do: %v", err)
						return
					}
				}
			}()
		}
		pool.Publish(nv) // races the burst above
		wg.Wait()
		// The queue has drained, so a fresh job cannot starve; it was
		// submitted after Publish, so the worker swaps before running it.
		if err := pool.Do(context.Background(), func(chk *core.Checker, got uint64) {
			if got < epoch {
				t.Errorf("job submitted after publish of epoch %d ran at %d", epoch, got)
			}
			check(chk, got)
		}); err != nil {
			t.Fatal(err)
		}
	}

	if pool.Epoch() != 9 {
		t.Fatalf("pool epoch %d, want 9", pool.Epoch())
	}
	var distinct int
	epochsSeen.Range(func(_, _ any) bool { distinct++; return true })
	// The owner waited for each of epochs 2-9 to be observed.
	if distinct < 8 {
		t.Fatalf("saw %d distinct epochs, want ≥ 8", distinct)
	}
	if pool.Swaps() < 2 {
		t.Fatalf("swaps = %d, want ≥ 2 (both workers must have materialized)", pool.Swaps())
	}
	stats := pool.Stats()
	if len(stats) != workers {
		t.Fatalf("got %d worker stats, want %d", len(stats), workers)
	}
	var jobs uint64
	for _, s := range stats {
		jobs += s.Jobs
		if s.Jobs > 0 && s.Kernel.Live < 2 {
			t.Fatalf("worker %d served %d jobs with an empty kernel", s.Worker, s.Jobs)
		}
	}
	if jobs < checks.Load() {
		t.Fatalf("worker stats count %d jobs, checkers completed %d", jobs, checks.Load())
	}
	t.Logf("%d checks across %d epochs, %d swaps", checks.Load(), distinct, pool.Swaps())
}

func TestPoolClose(t *testing.T) {
	primary, _ := newPrimary(t)
	v, err := replica.NewVersion(primary, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := replica.New(2, v)
	if err != nil {
		t.Fatal(err)
	}
	pool.Close()
	pool.Close() // idempotent
	if err := pool.Do(context.Background(), func(*core.Checker, uint64) {}); !errors.Is(err, replica.ErrClosed) {
		t.Fatalf("Do after Close = %v, want ErrClosed", err)
	}
}

func TestDoRespectsContext(t *testing.T) {
	primary, _ := newPrimary(t)
	v, err := replica.NewVersion(primary, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := replica.New(1, v)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Occupy the single worker, then submit with a canceled context: Do
	// must return promptly — either the worker came free first (nil) or
	// submission observed the cancellation.
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pool.Do(context.Background(), func(*core.Checker, uint64) {
			close(started)
			<-release
		})
	}()
	<-started
	errCh := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errCh <- pool.Do(ctx, func(*core.Checker, uint64) {})
		}()
	}
	close(release)
	wg.Wait()
	var canceled int
	for i := 0; i < 8; i++ {
		if err := <-errCh; err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Do = %v, want context.Canceled or success", err)
			}
			canceled++
		}
	}
	// Nothing queues in front of a busy worker, so of 8 canceled
	// submissions against a blocked one some must take the ctx branch.
	if canceled == 0 {
		t.Log("no submission observed the canceled context (the worker came free fast); still no deadlock")
	}
}

// TestDoMeetsWorkersInTurn: a caller that submits one job at a time meets
// the workers in a fixed rotation, whatever the scheduler does to their
// goroutines between jobs. A check's cost depends on what its replica's
// caches hold, so the kernel step counts of a sequential client — the
// benchmark's gated metric — repeat only if the rotation does.
func TestDoMeetsWorkersInTurn(t *testing.T) {
	primary, _ := newPrimary(t)
	v, err := replica.NewVersion(primary, 1)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 3
	pool, err := replica.New(workers, v)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var served []*core.Checker
	for i := 0; i < 200*workers; i++ {
		if err := pool.Do(context.Background(), func(chk *core.Checker, _ uint64) { served = append(served, chk) }); err != nil {
			t.Fatal(err)
		}
	}
	for i, chk := range served {
		if i >= workers && chk != served[i-workers] {
			t.Fatalf("job %d ran on a different replica than job %d: the rotation slipped", i, i-workers)
		}
		if i > 0 && i < workers && chk == served[i-1] {
			t.Fatalf("jobs %d and %d ran on one replica with %d idle", i-1, i, workers-1)
		}
	}
}

// TestIdleWorkerDoesNotPinRetiredVersion: a worker holds the replica it built
// from a version, never the version. When most checks are answered without a
// replica only one worker adopts each new epoch; the others sit on the
// previous one, and had they kept its Version alive each would carry a
// second, frozen copy of the whole index.
func TestIdleWorkerDoesNotPinRetiredVersion(t *testing.T) {
	primary, _ := newPrimary(t)
	v1, err := replica.NewVersion(primary, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := replica.New(2, v1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	nop := func(*core.Checker, uint64) {}
	for i := 0; i < 2; i++ { // sequential jobs meet the workers in turn: both materialise v1
		if err := pool.Do(context.Background(), nop); err != nil {
			t.Fatal(err)
		}
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(v1, func(*replica.Version) { close(collected) })
	v1 = nil

	v2, err := replica.NewVersion(primary, 2)
	if err != nil {
		t.Fatal(err)
	}
	pool.Publish(v2)
	if err := pool.Do(context.Background(), nop); err != nil {
		t.Fatal(err)
	}
	var behind int
	for _, ws := range pool.Stats() {
		if ws.Epoch == 1 {
			behind++
		}
	}
	if behind != 1 {
		t.Fatalf("want one worker still serving epoch 1 after one job, got %d: %+v", behind, pool.Stats())
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("epoch 1's Version survives its retirement: something still holds it")
}
