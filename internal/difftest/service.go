package difftest

// service.go adds the serving stack as another evaluation path of the
// harness. When ServiceSoak is on, RunCase builds a second copy of the
// case's catalog behind a service.Server — two read replicas, the case's
// constraints as its registry — feeds it every update batch through
// Server.Update, and after each step checks the whole registry twice. Both
// replies must carry the primary's verdicts, and the second must come out
// of the server's verdict memo for every constraint the first decided by
// BDD: the memo answers for a database state it never evaluated on the
// kernel that serves the reply, so nothing but this comparison stands
// between a wrong invalidation rule and a stale verdict.

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/service"
)

// ServiceSoak makes RunCase cross-check a service.Server after the initial
// load and after every update batch. The difftest suite's -service flag
// sets it.
var ServiceSoak bool

type serviceOracle struct {
	srv *service.Server
}

// newServiceOracle serves a fresh build of the case: the primary is
// untouched, so divergence can only come from the serving stack itself.
func newServiceOracle(c *Case, cts []logic.Constraint, method core.OrderingMethod) (*serviceOracle, error) {
	cat, err := c.Build()
	if err != nil {
		return nil, fmt.Errorf("difftest: rebuilding case for service oracle: %w", err)
	}
	chk := core.New(cat, core.Options{NodeBudget: -1, RandomSeed: c.Seed})
	if DebugChecks {
		chk.Store().Kernel().SetDebugChecks(true)
	}
	for _, ts := range c.Tables {
		if _, err := chk.BuildIndex(ts.Name, ts.Name, nil, method); err != nil {
			return nil, fmt.Errorf("difftest: service oracle: building index for %s: %w", ts.Name, err)
		}
	}
	srv, err := service.New(chk, cts, service.Options{Replicas: 2})
	if err != nil {
		return nil, fmt.Errorf("difftest: starting service oracle: %w", err)
	}
	return &serviceOracle{srv: srv}, nil
}

func (s *serviceOracle) close() { s.srv.Close() }

// apply acknowledges one update batch the way /update does.
func (s *serviceOracle) apply(batch []core.Update) error {
	applied, err := s.srv.Update(context.Background(), batch, nil)
	if err != nil {
		return err
	}
	if applied != len(batch) {
		return fmt.Errorf("server applied %d of %d tuples", applied, len(batch))
	}
	return nil
}

// check holds two consecutive registry checks against the primary. The
// caller runs it only after checkAll passed, so the primary's answers
// already agree with the SQL baseline.
func (s *serviceOracle) check(primary *core.Checker, step int) (*Mismatch, error) {
	ctx := context.Background()
	cts, registered, err := s.srv.Resolve(nil, "")
	if err != nil {
		return nil, fmt.Errorf("difftest: service oracle: resolving the registry: %w", err)
	}
	var replies [2][]service.CheckResult
	var hits [2]uint64
	for i := range replies {
		before := s.srv.Stats().Checker.MemoHits
		if replies[i], _, err = s.srv.Check(ctx, cts, registered, 0, 0, nil); err != nil {
			return nil, fmt.Errorf("difftest: service check at step %d: %w", step, err)
		}
		hits[i] = s.srv.Stats().Checker.MemoHits - before
	}
	var memoisable uint64
	for i, ct := range cts {
		mm := func(kind, format string, args ...interface{}) *Mismatch {
			return &Mismatch{Step: step, Constraint: ct.Name, Kind: kind, Detail: fmt.Sprintf(format, args...)}
		}
		pres := primary.CheckOne(ct)
		for n, reply := range replies {
			if got := reply[i]; got.Error != "" {
				return mm("service-error", "check %d of 2 failed: %s", n+1, got.Error), nil
			} else if got.Violated != pres.Violated {
				return mm("service-verdict", "primary(%s)=%v, server's check %d of 2 (%s, %d of %d from the memo)=%v",
					pres.Method, pres.Violated, n+1, got.Method, hits[n], len(cts), got.Violated), nil
			}
		}
		if first := replies[0][i]; first.Method == string(core.MethodBDD) && !first.FellBack {
			memoisable++
		}
	}
	if len(cts) > 0 && hits[1] != memoisable {
		return &Mismatch{Step: step, Constraint: cts[0].Name, Kind: "service-memo",
			Detail: fmt.Sprintf("the first check decided %d constraints by BDD, the second took %d from the memo", memoisable, hits[1])}, nil
	}
	return nil, nil
}
