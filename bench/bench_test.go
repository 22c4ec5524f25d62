package main

import (
	"testing"
)

// goldenSeed1 pins the generated inputs of seed 1 at the default run length:
// relation, rules and every op body. A change here changes what every
// recorded number was measured on, so it must be deliberate.
var goldenSeed1 = map[string]string{
	"hot_recheck":   "004d6374458450bfa009e4dbbc7d4ff11dd913487b66165cdf567050e21510b1",
	"adhoc_cold":    "827794aece5de7a4dd460d0324844573d09086d584d359e0a86c63299981ee52",
	"write_mix":     "c9e3a1ea680d2c1eb004f4a33c9cea4db0fa2f729cef5349e36dc79486ef75ed",
	"shard_scatter": "fd071a6dee5fe1e9d87e05b0f6d267caee733e781c650cc712bded39a4b067a1",
}

// seed1 builds each workload of seed 1 once for all tests; they only read it.
var seed1 = map[string]*workload{}

func workloadSeed1(t *testing.T, name string) *workload {
	t.Helper()
	if seed1[name] == nil {
		w, err := buildWorkload(name, 1, nominalSeconds)
		if err != nil {
			t.Fatal(err)
		}
		seed1[name] = w
	}
	return seed1[name]
}

func TestOpListsArePureFunctionsOfWorkloadAndSeed(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloadSeed1(t, name)
		again, err := buildWorkload(name, 1, nominalSeconds)
		if err != nil {
			t.Fatal(err)
		}
		if w.hash() != again.hash() {
			t.Errorf("%s: two builds of seed 1 differ", name)
		}
		if got := w.hash(); got != goldenSeed1[name] {
			t.Errorf("%s: seed 1 hashes to %s, golden is %s", name, got, goldenSeed1[name])
		}
		other, err := buildWorkload(name, 2, nominalSeconds)
		if err != nil {
			t.Fatal(err)
		}
		if other.hash() == w.hash() {
			t.Errorf("%s: seeds 1 and 2 give the same inputs", name)
		}
	}
}

func TestEverySliceHasTheSameTemplateMix(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloadSeed1(t, name)
		if len(w.Slices) != numSlices {
			t.Fatalf("%s: %d slices, want %d", name, len(w.Slices), numSlices)
		}
		if len(w.Warmup) < 15 {
			t.Errorf("%s: %d ops per slice, want at least 15", name, len(w.Warmup))
		}
		for i, sl := range w.Slices {
			if len(sl) != len(w.Warmup) {
				t.Fatalf("%s: slice %d has %d ops, the warm-up slice %d", name, i, len(sl), len(w.Warmup))
			}
			for j := range sl {
				if sl[j].Tmpl != w.Warmup[j].Tmpl || sl[j].Class != w.Warmup[j].Class {
					t.Fatalf("%s: slice %d op %d is %s, the warm-up slice has %s", name, i, j, sl[j].Tmpl, w.Warmup[j].Tmpl)
				}
			}
		}
	}
}

// inprocSteps replays a cut-down adhoc_cold in-process and returns its
// kernel steps per op.
func inprocSteps(t *testing.T) float64 {
	t.Helper()
	// One period of warm-up, no settling and a quarter of a slice keep the
	// test under its budget; the property does not depend on the length. The
	// ops are stateless, so dropping some leaves the others' answers valid.
	w := *workloadSeed1(t, "adhoc_cold")
	w.Warmup = w.Warmup[:len(shapes["adhoc_cold"].slicePattern)]
	w.Settle = nil
	w.Slices = [][]op{w.Slices[0][:len(w.Slices[0])/4]}
	rec := newRecorder()
	in, err := runInproc(&w, rec, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if in.first.n > 0 {
		t.Fatalf("%d in-process answers disagree with the oracle, first: %v", in.first.n, in.first.err)
	}
	rec.finish()
	if err := rec.checkSums(); err != nil {
		t.Fatal(err)
	}
	var steps uint64
	for _, sp := range rec.spans {
		if sp.Op >= 0 && sp.Kernel != nil {
			steps += sp.Kernel.Ops
		}
	}
	if steps == 0 {
		t.Fatal("no kernel steps recorded")
	}
	return float64(steps) / float64(len(w.ops()))
}

func TestInProcessKernelStepsRepeatExactly(t *testing.T) {
	a, b := inprocSteps(t), inprocSteps(t)
	if a != b {
		t.Errorf("bdd.steps_per_op differs between two in-process passes: %v and %v", a, b)
	}
}

func TestOracleSeesPlantedViolations(t *testing.T) {
	w := workloadSeed1(t, "hot_recheck")
	check := w.Warmup[0].Want
	if len(check.Verdicts) != len(w.Registered) {
		t.Fatalf("%d verdicts for %d registered constraints", len(check.Verdicts), len(w.Registered))
	}
	violated := 0
	for _, v := range check.Verdicts {
		if v.Violated {
			violated++
		}
	}
	if violated == 0 || violated == len(check.Verdicts) {
		t.Errorf("%d of %d registered constraints violated; the noise rate should violate some, not all", violated, len(check.Verdicts))
	}
	drill := w.Warmup[len(w.Warmup)-1].Want
	if drill.Constraint != "mem_tight" || drill.Witnesses != drillLimit {
		t.Errorf("witness drill expects %d witnesses of %s, want the limit of mem_tight", drill.Witnesses, drill.Constraint)
	}
}

// The sharded in-process stack — internal/shard's coordinator over the
// harness's workers — answers as the oracle does, its side-by-side shard
// spans still sum to the root spans, and the count e2e.go takes from it is
// the one its spans carry.
func TestShardedStackCountsWhatItsSpansCarry(t *testing.T) {
	// The ops are stateful, so the cut must be a prefix of what a daemon
	// sees: the warm-up slice's first period warms up, its second is measured.
	w := *workloadSeed1(t, "shard_scatter")
	period := len(shapes["shard_scatter"].slicePattern)
	w.Warmup, w.Settle, w.Slices = w.Warmup[:period], nil, [][]op{w.Warmup[period : 2*period]}
	rec := newRecorder()
	in, err := runInproc(&w, rec, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if in.first.n > 0 {
		t.Fatalf("%d in-process answers disagree with the oracle, first: %v", in.first.n, in.first.err)
	}
	rec.finish()
	if err := rec.checkSums(); err != nil {
		t.Fatal(err)
	}
	var steps uint64
	for _, sp := range rec.spans {
		if sp.Op >= 0 && sp.Kernel != nil {
			steps += sp.Kernel.Ops
		}
	}
	if steps == 0 || steps != in.shardSteps {
		t.Errorf("measured spans carry %d kernel steps, the shard kernels moved by %d", steps, in.shardSteps)
	}
}
