package core_test

// service_api_test.go covers the checker surface the long-lived service
// (internal/service) builds on: batched updates through the incremental
// index maintenance path and per-call node-budget caps.

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/logic"
)

func TestApplyBatchMaintainsIndices(t *testing.T) {
	cat := buildCurriculum(t)
	chk := newChecker(t, cat)
	f, err := logic.Parse(curriculumConstraint)
	if err != nil {
		t.Fatal(err)
	}
	ct := logic.Constraint{Name: "cs_programming", F: f}
	if res := chk.CheckOne(ct); !res.Violated {
		t.Fatal("seed database should violate the constraint")
	}
	// Repair s2 and enroll a new student, in one batch.
	n, err := chk.Apply([]core.Update{
		{Table: "TAKES", Op: core.UpdateInsert, Values: []string{"s2", "cs101"}},
		{Table: "STUDENT", Op: core.UpdateInsert, Values: []string{"s4", "CS", "c4"}},
		{Table: "TAKES", Op: core.UpdateInsert, Values: []string{"s4", "cs101"}},
	})
	if err != nil || n != 3 {
		t.Fatalf("Apply = (%d, %v), want (3, nil)", n, err)
	}
	res := chk.CheckOne(ct)
	if res.Err != nil || res.Violated {
		t.Fatalf("after repair batch: violated=%v err=%v", res.Violated, res.Err)
	}
	if res.Method != core.MethodBDD {
		t.Fatalf("repair batch must keep indices usable, got method=%s", res.Method)
	}
	// Deleting the repair tuple reintroduces the violation.
	if _, err := chk.Apply([]core.Update{
		{Table: "TAKES", Op: core.UpdateDelete, Values: []string{"s2", "cs101"}},
	}); err != nil {
		t.Fatal(err)
	}
	if res := chk.CheckOne(ct); !res.Violated {
		t.Fatal("deleting the repair tuple should re-violate the constraint")
	}
}

func TestApplyBatchStopsAtFirstError(t *testing.T) {
	cat := buildCurriculum(t)
	chk := newChecker(t, cat)
	n, err := chk.Apply([]core.Update{
		{Table: "TAKES", Op: core.UpdateInsert, Values: []string{"s1", "cs102"}},
		{Table: "NOSUCH", Op: core.UpdateInsert, Values: []string{"x"}},
		{Table: "TAKES", Op: core.UpdateInsert, Values: []string{"s3", "cs101"}},
	})
	if err == nil || n != 1 {
		t.Fatalf("Apply = (%d, %v), want (1, error)", n, err)
	}
	if !strings.Contains(err.Error(), "update 1") {
		t.Fatalf("error should name the failing update: %v", err)
	}
	for _, bad := range []core.Update{
		{Table: "TAKES", Op: "upsert", Values: []string{"s1", "cs101"}},
		{Table: "TAKES", Op: core.UpdateInsert, Values: []string{"too", "many", "values"}},
		{Table: "TAKES", Op: core.UpdateDelete, Values: []string{"s1"}},
	} {
		if _, err := chk.Apply([]core.Update{bad}); err == nil {
			t.Errorf("Apply(%+v) should fail", bad)
		}
	}
}

// TestRefusedTupleLeavesNoTrace: an insert whose new value would overflow an
// index block is refused before its dictionary or its table takes it. The
// curriculum's three course ids have a 2-bit block: cs103 takes code 3, and
// cs104 would take code 4, in COURSE as in TAKES, which shares the domain.
// Every check over the two tables must still run on the indices.
func TestRefusedTupleLeavesNoTrace(t *testing.T) {
	cat := buildCurriculum(t)
	chk := newChecker(t, cat)
	f, err := logic.Parse(curriculumConstraint)
	if err != nil {
		t.Fatal(err)
	}
	ct := logic.Constraint{Name: "cs_programming", F: f}
	n, err := chk.Apply([]core.Update{
		{Table: "COURSE", Op: core.UpdateInsert, Values: []string{"cs103", "Programming"}},
		{Table: "COURSE", Op: core.UpdateInsert, Values: []string{"cs104", "Programming"}},
	})
	if n != 1 || err == nil || !strings.Contains(err.Error(), "overflows the 2-bit block") {
		t.Fatalf("Apply = (%d, %v), want (1, an overflow)", n, err)
	}
	n, err = chk.Apply([]core.Update{
		{Table: "TAKES", Op: core.UpdateInsert, Values: []string{"s2", "cs105"}},
	})
	if n != 0 || err == nil {
		t.Fatalf("Apply = (%d, %v), want (0, an overflow)", n, err)
	}
	if got := cat.Table("COURSE").Len(); got != 4 {
		t.Fatalf("COURSE holds %d rows, want 4", got)
	}
	if got := cat.Table("TAKES").Len(); got != 3 {
		t.Fatalf("TAKES holds %d rows, want 3", got)
	}
	if got := cat.Domain("course_id").Size(); got != 4 {
		t.Fatalf("the course_id dictionary holds %d values, want 4", got)
	}
	if res := chk.CheckOne(ct); res.Err != nil || res.Method != core.MethodBDD || !res.Violated {
		t.Fatalf("after the refusals: method=%s violated=%v err=%v, want bdd/true/nil", res.Method, res.Violated, res.Err)
	}
}

func TestCheckOneOptsBudgetCapFallsBack(t *testing.T) {
	cat := buildCurriculum(t)
	chk := newChecker(t, cat)
	f, err := logic.Parse(curriculumConstraint)
	if err != nil {
		t.Fatal(err)
	}
	ct := logic.Constraint{Name: "cs_programming", F: f}
	// A one-node cap is below the live index nodes: BDD evaluation aborts
	// immediately and the call degrades to the SQL fallback.
	res := chk.CheckOneOpts(ct, core.CheckOptions{NodeBudget: 1})
	if res.Err != nil {
		t.Fatalf("CheckOneOpts: %v", res.Err)
	}
	if !res.FellBack || res.Method != core.MethodSQL {
		t.Fatalf("want SQL fallback under 1-node cap, got method=%s fellBack=%v", res.Method, res.FellBack)
	}
	if !errors.Is(res.FallbackReason, bdd.ErrBudget) {
		t.Fatalf("FallbackReason = %v, want ErrBudget", res.FallbackReason)
	}
	if !res.Violated {
		t.Fatal("SQL fallback must still detect the violation")
	}
	// The cap is per-call: the checker-wide budget is restored and the same
	// constraint evaluates via BDD again.
	res = chk.CheckOne(ct)
	if res.Err != nil || res.Method != core.MethodBDD {
		t.Fatalf("after capped call: method=%s err=%v, want bdd/nil", res.Method, res.Err)
	}
	if !res.Violated {
		t.Fatal("BDD check must agree with SQL")
	}
}

func TestParseOrderingMethod(t *testing.T) {
	for s, want := range map[string]core.OrderingMethod{
		"prob":   core.OrderProbConverge,
		"maxinf": core.OrderMaxInfGain,
		"random": core.OrderRandom,
		"schema": core.OrderSchema,
	} {
		got, err := core.ParseOrderingMethod(s)
		if err != nil || got != want {
			t.Errorf("ParseOrderingMethod(%q) = (%v, %v), want %v", s, got, err, want)
		}
	}
	if _, err := core.ParseOrderingMethod("bogus"); err == nil {
		t.Error("ParseOrderingMethod(bogus) should fail")
	}
}
