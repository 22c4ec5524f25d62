package main

// oracle.go is the reference the daemon's replies are judged against: a
// direct evaluator of the generator's constraint specs over the live rows.
// It shares no code with the system under test — no parser, no BDD, no SQL
// engine — so an agreement between the two is evidence. buildWorkload runs
// it once over the whole op list, before any clock starts, and every op
// carries its answer; every reply of every run is checked against it. The
// traced pass additionally checks it against the real checker built
// in-process from the same inputs and, on a 1-in-16 sample, against
// internal/sqlengine (inproc.go).

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/service"
)

// verdict is one constraint's expected /check result.
type verdict struct {
	Name     string
	Violated bool
}

// expect is the reference answer to one op.
type expect struct {
	// Check ops: one verdict per constraint, in reply order.
	Verdicts []verdict
	// Witness ops: the constraint and how many witnesses the reply holds.
	Constraint string
	Witnesses  int
	// Update ops: tuples applied.
	Applied int
}

// oracle replays the op list against its own copy of the relation.
type oracle struct {
	w *workload
	// live maps a row (values joined by \x00) to its values and multiplicity.
	live map[string]*liveRow
	// by indexes the distinct live rows by the value of each column a spec
	// selects on, so a constraint visits only the rows it selects.
	by [colZip + 1]map[string]map[*liveRow]struct{}
	// registry caches the whole-registry verdicts until the next update.
	registry []verdict
}

type liveRow struct {
	vals []string
	n    int
}

func newOracle(w *workload) *oracle {
	o := &oracle{w: w, live: make(map[string]*liveRow, len(w.Rows))}
	for _, c := range []int{colArea, colNumber, colCity, colState} {
		o.by[c] = map[string]map[*liveRow]struct{}{}
	}
	for _, r := range w.Rows {
		o.insert(r)
	}
	return o
}

func (o *oracle) insert(vals []string) {
	key := strings.Join(vals, "\x00")
	if lr := o.live[key]; lr != nil {
		lr.n++
		return
	}
	lr := &liveRow{vals: vals, n: 1}
	o.live[key] = lr
	for c, idx := range o.by {
		if idx == nil {
			continue
		}
		if idx[vals[c]] == nil {
			idx[vals[c]] = map[*liveRow]struct{}{}
		}
		idx[vals[c]][lr] = struct{}{}
	}
}

func (o *oracle) remove(vals []string) bool {
	key := strings.Join(vals, "\x00")
	lr := o.live[key]
	if lr == nil {
		return false
	}
	if lr.n--; lr.n == 0 {
		delete(o.live, key)
		for c, idx := range o.by {
			if idx != nil {
				delete(idx[vals[c]], lr)
			}
		}
	}
	return true
}

// violated reports whether the spec is violated and, for a
// selection-implies-membership spec, by how many distinct tuples. That is the
// checker's witness count: anonymous "_" arguments join the leading
// quantifier block, so a witness binds every column of the predicate.
func (o *oracle) violated(sp spec) (bool, int) {
	if sp.FD {
		seen := map[string]string{}
		for _, lr := range o.live {
			r := lr.vals
			if dep, ok := seen[r[sp.Det]]; ok && dep != r[sp.Dep] {
				return true, 0
			}
			seen[r[sp.Det]] = r[sp.Dep]
		}
		return false, 0
	}
	n := 0
	for sel := range sp.SelSet {
		for lr := range o.by[sp.Sel][sel] {
			if !sp.DepSet[lr.vals[sp.Dep]] {
				n++
			}
		}
	}
	return n > 0, n
}

// next returns the reference answer to the op and advances the relation
// past it. Ops must be fed in the order the daemon sees them.
func (o *oracle) next(p op) (expect, error) {
	switch p.Path {
	case "/update":
		for i, u := range p.Updates {
			if u.Op == "insert" {
				o.insert(u.Values)
				continue
			}
			if !o.remove(u.Values) {
				return expect{}, fmt.Errorf("oracle: update %d deletes a tuple that is not live", i)
			}
		}
		o.registry = nil
		return expect{Applied: len(p.Updates)}, nil
	case "/witnesses":
		sp, err := o.target(p)
		if err != nil {
			return expect{}, err
		}
		_, n := o.violated(sp)
		return expect{Constraint: sp.Name, Witnesses: min(n, p.Limit)}, nil
	}
	if p.Adhoc == nil {
		if o.registry == nil {
			o.registry = o.verdicts(o.w.Registered)
		}
		return expect{Verdicts: o.registry}, nil
	}
	return expect{Verdicts: o.verdicts(p.Adhoc)}, nil
}

func (o *oracle) verdicts(specs []spec) []verdict {
	out := make([]verdict, len(specs))
	for i, sp := range specs {
		v, _ := o.violated(sp)
		out[i] = verdict{Name: sp.Name, Violated: v}
	}
	return out
}

// target resolves a witness op's constraint.
func (o *oracle) target(p op) (spec, error) {
	if p.Named == "" {
		return p.Adhoc[0], nil
	}
	for _, sp := range o.w.Registered {
		if sp.Name == p.Named {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("oracle: op names unregistered constraint %q", p.Named)
}

// wantMethod is the method every reply must carry: the BDD path, reported
// as "shard" by the coordinator's scatter-gather merge. Anything else means
// a fallback the workloads are built to avoid.
func (w *workload) wantMethod() string {
	if w.Shards > 0 {
		return "shard"
	}
	return "bdd"
}

// answer fills in every op's reference answer, in the order the daemon sees
// the ops.
func (w *workload) answer() error {
	ref := newOracle(w)
	for _, sl := range w.allSlices() {
		for i := range sl {
			want, err := ref.next(sl[i])
			if err != nil {
				return err
			}
			sl[i].Want = want
		}
	}
	return nil
}

// verify compares a daemon reply with the op's reference answer. A nil error
// means the op succeeded.
func verify(w *workload, p op, r reply) error {
	want := p.Want
	if r.err != nil {
		return r.err
	}
	if r.status != 200 {
		return fmt.Errorf("status %d: %s", r.status, firstLine(r.body))
	}
	switch p.Path {
	case "/update":
		var got service.UpdateResponse
		if err := json.Unmarshal(r.body, &got); err != nil {
			return err
		}
		if got.Applied != want.Applied || got.Error != "" {
			return fmt.Errorf("update applied %d (error %q), want %d", got.Applied, got.Error, want.Applied)
		}
	case "/witnesses":
		var got service.WitnessResponse
		if err := json.Unmarshal(r.body, &got); err != nil {
			return err
		}
		if got.Constraint != want.Constraint || got.Method != w.wantMethod() || len(got.Witnesses) != want.Witnesses {
			return fmt.Errorf("witnesses: %s method %s count %d, want %s %s %d",
				got.Constraint, got.Method, len(got.Witnesses), want.Constraint, w.wantMethod(), want.Witnesses)
		}
	default:
		var got service.CheckResponse
		if err := json.Unmarshal(r.body, &got); err != nil {
			return err
		}
		if len(got.Results) != len(want.Verdicts) {
			return fmt.Errorf("check: %d results, want %d", len(got.Results), len(want.Verdicts))
		}
		for i, res := range got.Results {
			v := want.Verdicts[i]
			if res.Name != v.Name || res.Violated != v.Violated || res.Method != w.wantMethod() || res.FellBack || res.Error != "" {
				return fmt.Errorf("check %s: violated=%v method=%q fell_back=%v error=%q, want %s violated=%v method=%q",
					res.Name, res.Violated, res.Method, res.FellBack, res.Error, v.Name, v.Violated, w.wantMethod())
			}
		}
	}
	return nil
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}
