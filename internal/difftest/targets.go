package difftest

// targets.go holds the deployment forms RunCase holds against the primary,
// all of one shape: built from the case, they follow every batch the
// primary applies, answer the constraints at every step through hold, and
// are closed at the end. The replica is in every case; the case's Config
// adds the follower, the shard coordinator and the service. The last two
// get a second build of the case (same rows, same interned dictionaries),
// so divergence can only come from the form itself.

import (
	"context"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/replica"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/store"
)

// A target is one deployment form held against the primary.
type target interface {
	// name prefixes the target's mismatch kinds.
	name() string
	// apply follows the batch the primary just applied as epoch; an error
	// other than a harnessError is the target refusing it, a divergence.
	apply(epoch uint64, batch []core.Update) error
	// check holds the target's answers at the step to the expectation.
	check(want []expectation, step int) (*Mismatch, error)
	close()
}

// harnessError is a target's apply failing for a cause outside the form
// under test, such as the disk: RunCase reports it as a hard error, so the
// shrinker cannot minimize it into a fake divergence.
type harnessError struct{ error }

// buildTargets builds the replica and the targets the case's Config draws.
// On error the targets built so far are returned for the caller to close.
func buildTargets(c *Case, cts []logic.Constraint, primary *core.Checker, method core.OrderingMethod) ([]target, error) {
	rep, err := follow(nil, primary, 1)
	if err != nil {
		return nil, err
	}
	targets := []target{&replicaTarget{checkerTarget{"replica", rep}, primary}}
	add := func(t target, err error) error {
		if err == nil {
			targets = append(targets, t)
		}
		return err
	}
	if c.Config.Follower && err == nil {
		err = add(newFollowerTarget(primary, cts))
	}
	if c.Config.Shards > 0 && err == nil {
		err = add(newShardTarget(c, cts))
	}
	if c.Config.Service && err == nil {
		err = add(newServiceTarget(c, cts, method))
	}
	return targets, err
}

// checkerTarget answers on one checker with the SQL fallback off, so only
// its BDDs decide.
type checkerTarget struct {
	label string
	chk   *core.Checker
}

func (t *checkerTarget) name() string { return t.label }

func (t *checkerTarget) check(want []expectation, step int) (*Mismatch, error) {
	got := make([]service.CheckResult, len(want))
	for i, e := range want {
		got[i] = service.ResultOf(t.chk.CheckOneOpts(e.ct, core.CheckOptions{NoSQLFallback: true}))
	}
	witnesses := func(ct logic.Constraint) ([]core.Witness, error) { return t.chk.ViolationWitnesses(ct, witnessLimit) }
	return hold(t.label, want, got, witnesses, step), nil
}

// replicaTarget adopts the primary's indices through the production freeze
// and follows it from batch to batch, a long-lived checker.
type replicaTarget struct {
	checkerTarget
	primary *core.Checker
}

func (t *replicaTarget) apply(epoch uint64, _ []core.Update) error {
	next, err := follow(t.chk, t.primary, epoch)
	if err != nil {
		return err
	}
	t.chk = next
	return nil
}

func (t *replicaTarget) close() { ProjectionCoverage.Adopted += t.chk.Store().AdoptedReads() }

// follow brings rep — nil before the first step — to the primary's current
// state through the production freeze, replica.NewVersion and
// Version.Materialize, the way a replica.Pool worker adopts a publication:
// in place, ending with the worker's collection, or into a fresh replica
// when rep cannot advance.
func follow(rep, primary *core.Checker, epoch uint64) (*core.Checker, error) {
	v, err := replica.NewVersion(primary, epoch)
	if err != nil {
		return nil, fmt.Errorf("difftest: freezing the primary: %w", err)
	}
	next, err := v.Materialize(rep)
	if err != nil {
		return nil, fmt.Errorf("difftest: materializing the replica: %w", err)
	}
	switch {
	case rep == nil:
	case next == rep:
		next.Store().Kernel().GC()
		ReplicaCoverage.Advanced++
	default:
		ReplicaCoverage.Rebuilt++
		ProjectionCoverage.Adopted += rep.Store().AdoptedReads()
	}
	return next, nil
}

// followerTarget ships the case the way a leader ships to a cvserved
// follower — the initial state sealed as the epoch-1 snapshot of a
// throwaway store, every batch appended to its WAL — and recovers a fresh
// checker from snapshot plus WAL replay after every batch.
type followerTarget struct {
	checkerTarget // recovered afresh after every batch
	dir           string
	st            *store.Store
	primary       *core.Checker // its options and DebugChecks are the follower's
}

func newFollowerTarget(primary *core.Checker, cts []logic.Constraint) (*followerTarget, error) {
	dir, err := os.MkdirTemp("", "difftest-follower-*")
	if err != nil {
		return nil, fmt.Errorf("difftest: follower store dir: %w", err)
	}
	st, err := store.Open(dir, store.Options{Fsync: store.FsyncOff})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("difftest: opening follower store: %w", err)
	}
	t := &followerTarget{checkerTarget{label: "follower"}, dir, st, primary}
	if err = st.WriteSnapshot(primary, store.RenderConstraints(cts), 1); err == nil {
		err = t.recover()
	}
	if err != nil {
		t.close()
		return nil, fmt.Errorf("difftest: follower bootstrap: %w", err)
	}
	return t, nil
}

func (t *followerTarget) recover() error {
	chk, _, _, err := t.st.Recover(t.primary.Options())
	if err != nil {
		return err
	}
	chk.Store().Kernel().SetDebugChecks(t.primary.Store().Kernel().DebugChecks())
	t.chk = chk
	return nil
}

func (t *followerTarget) apply(epoch uint64, batch []core.Update) error {
	if err := t.st.AppendBatch(epoch, batch); err != nil {
		return harnessError{fmt.Errorf("difftest: appending batch %d to the follower's WAL: %w", epoch-1, err)}
	}
	return t.recover()
}

func (t *followerTarget) close() {
	t.st.Close()
	os.RemoveAll(t.dir)
}

// backendTarget is a service.Backend — what the HTTP edge serves — held to
// the primary: a shard.Coordinator over Config.Shards in-process shard
// kernels, or a service.Server.
type backendTarget struct {
	label string
	b     service.Backend
	stop  func()
}

func (t *backendTarget) name() string { return t.label }

func (t *backendTarget) close() { t.stop() }

// apply acknowledges the batch the way /update does.
func (t *backendTarget) apply(_ uint64, batch []core.Update) error {
	applied, err := t.b.Update(context.Background(), batch, nil)
	if err == nil && applied != len(batch) {
		err = fmt.Errorf("applied %d of %d tuples", applied, len(batch))
	}
	return err
}

// reply checks the whole registry: the case's constraints, in order.
func (t *backendTarget) reply(want []expectation, step int) ([]service.CheckResult, error) {
	cts, registered, err := t.b.Resolve(nil, "")
	if err != nil {
		return nil, err
	}
	got, _, err := t.b.Check(context.Background(), cts, registered, 0, 0, nil)
	if err == nil && len(got) != len(want) {
		err = fmt.Errorf("%d results for %d constraints", len(got), len(want))
	}
	if err != nil {
		return nil, fmt.Errorf("difftest: %s check at step %d: %w", t.label, step, err)
	}
	return got, nil
}

func (t *backendTarget) witnesses(ct logic.Constraint) ([]core.Witness, error) {
	ws, _, err := t.b.Witnesses(context.Background(), ct, witnessLimit, 0, nil)
	return ws, err
}

func (t *backendTarget) check(want []expectation, step int) (*Mismatch, error) {
	got, err := t.reply(want, step)
	if err != nil {
		return nil, err
	}
	return hold(t.label, want, got, t.witnesses, step), nil
}

// newShardTarget routes every batch through the coordinator's
// validate-route-fanout path.
func newShardTarget(c *Case, cts []logic.Constraint) (*backendTarget, error) {
	cat, err := c.Build()
	if err != nil {
		return nil, err
	}
	part, err := pickPartitioner(c, cat, cts)
	if err != nil {
		return nil, err
	}
	coord, err := shard.NewInProcess(cat, cts, part, shard.Options{NodeBudget: -1, RandomSeed: c.Seed})
	if err != nil {
		return nil, fmt.Errorf("difftest: building shard coordinator: %w", err)
	}
	return &backendTarget{"shard", coord.Backend(), coord.Close}, nil
}

// pickPartitioner keeps the (table, column) partition key whose
// decomposition makes the most constraints shard-local, so as much as the
// schema allows goes through the scatter-gather merge, the riskiest path;
// the rest takes the single-shard and residual paths, which must agree too.
// Ties go to the first key in case order, so the choice is deterministic.
func pickPartitioner(c *Case, cat *relation.Catalog, cts []logic.Constraint) (*shard.Partitioner, error) {
	if len(c.Tables) == 0 || len(c.Tables[0].Cols) == 0 {
		return nil, fmt.Errorf("difftest: the shard target needs at least one table column as the partition key")
	}
	res := logic.CatalogResolver{Catalog: cat}
	var best *shard.Partitioner
	bestLocal := -1
	for _, ts := range c.Tables {
		for _, col := range ts.Cols {
			p, err := shard.NewPartitioner(cat, shard.Key{Table: ts.Name, Column: col.Name}, c.Config.Shards, shard.HashMode, nil)
			if err != nil {
				return nil, fmt.Errorf("difftest: shard partitioner on %s.%s: %w", ts.Name, col.Name, err)
			}
			local := 0
			for _, ct := range cts {
				if p.Decompose(ct, res).Kind == shard.PlanLocal {
					local++
				}
			}
			if local > bestLocal {
				best, bestLocal = p, local
			}
		}
	}
	return best, nil
}

// serviceTarget is a service.Server with two pool replicas and the case's
// constraints as its registry, checked twice per step: the second reply
// must come out of the verdict memo for every constraint the first decided
// by BDD. The memo answers for a state it never evaluated on the kernel
// that serves the reply, so nothing but this check stands between a wrong
// invalidation rule and a stale verdict.
type serviceTarget struct{ backendTarget }

func newServiceTarget(c *Case, cts []logic.Constraint, method core.OrderingMethod) (*serviceTarget, error) {
	cat, err := c.Build()
	if err != nil {
		return nil, err
	}
	chk, err := buildChecker(c, cat, method)
	if err != nil {
		return nil, err
	}
	srv, err := service.New(chk, cts, service.Options{Replicas: 2})
	if err != nil {
		return nil, fmt.Errorf("difftest: starting the service target: %w", err)
	}
	return &serviceTarget{backendTarget{"service", srv, srv.Close}}, nil
}

// check holds both replies to the expectation, witness sets after the
// second, and the second to the memo.
func (t *serviceTarget) check(want []expectation, step int) (*Mismatch, error) {
	srv := t.b.(*service.Server)
	var memoisable, hits uint64
	for n := 1; n <= 2; n++ {
		before := srv.Stats().Checker.MemoHits
		got, err := t.reply(want, step)
		if err != nil {
			return nil, err
		}
		hits = srv.Stats().Checker.MemoHits - before
		witnesses := t.witnesses
		if n == 1 {
			witnesses = nil
			for _, r := range got {
				if r.Method == string(core.MethodBDD) {
					memoisable++
				}
			}
		}
		if mm := hold(t.label, want, got, witnesses, step); mm != nil {
			mm.Detail += fmt.Sprintf(" (check %d of 2, %d of %d from the memo)", n, hits, len(want))
			return mm, nil
		}
	}
	if len(want) > 0 && hits != memoisable {
		return &Mismatch{Step: step, Constraint: want[0].ct.Name, Kind: "service-memo",
			Detail: fmt.Sprintf("the first check decided %d constraints by BDD, the second took %d from the memo", memoisable, hits)}, nil
	}
	return nil, nil
}
