package experiments_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// The experiment drivers are exercised end-to-end at reduced scale; the
// heavy ones are skipped under -short. Each must produce its header row,
// record its timed cells as rows under its own name, and complete without
// strategy disagreements (the experiments cross-check BDD and SQL results
// internally and fail on mismatch).
//
// Each row's counted kernel work answers to testdata/counts.json, which holds
// the ops of every row at this scale whose count repeats to the digit: a row
// more than 1 % off its golden value fails, and so does a golden row no
// longer recorded. A change that moves a count on purpose rewrites its line.
// An index build interns its nodes without a counted step, so a build row
// (fig4's build, fig2a's rebuilds) is gated by its nodes_allocated instead,
// exactly, under its key followed by " nodes_allocated"; so is each rank row
// of fig2bc, a rebuild under the ordering of that rank.

// rowKey names a row in counts.json: experiment/name, then the params in
// key order.
func rowKey(r experiments.BenchRow) string {
	key := r.Experiment + "/" + r.Name
	params := make([]string, 0, len(r.Params))
	for k, v := range r.Params {
		params = append(params, fmt.Sprintf("%s=%v", k, v))
	}
	slices.Sort(params)
	return strings.Join(append([]string{key}, params...), " ")
}

func runExperiment(t *testing.T, name string, f func(experiments.Config) error, wantHeader string) {
	t.Helper()
	var buf bytes.Buffer
	var rows []experiments.BenchRow
	cfg := experiments.Config{Out: &buf, Seed: 7, Record: func(r experiments.BenchRow) { rows = append(rows, r) }}
	if err := f(cfg); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !strings.Contains(buf.String(), wantHeader) {
		t.Fatalf("%s output missing %q:\n%s", name, wantHeader, buf.String())
	}
	if len(rows) == 0 {
		t.Fatalf("%s recorded no rows", name)
	}
	for _, r := range rows {
		if r.Experiment != name || r.NsPerOp <= 0 {
			t.Fatalf("%s recorded %+v", name, r)
		}
		// Fig 6 records the size it built, which reaches the size it asked for.
		if strings.HasPrefix(name, "fig6") {
			built, ok := r.Params["p_nodes"].(int)
			if name == "fig6a" {
				built, ok = r.Params["r1_nodes"].(int)
			}
			if target, _ := r.Params["target_nodes"].(int); !ok || target <= 0 || built < target {
				t.Fatalf("%s row %+v: want a built node count at or past target_nodes", name, r.Params)
			}
		}
	}

	src, err := os.ReadFile("testdata/counts.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]uint64
	if err := json.Unmarshal(src, &golden); err != nil {
		t.Fatalf("testdata/counts.json: %v", err)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		key := rowKey(r)
		seen[key] = true
		if want, ok := golden[key+" nodes_allocated"]; ok {
			seen[key+" nodes_allocated"] = true
			if r.NodesAllocated != want {
				t.Errorf("%s allocated %d nodes, %d in testdata/counts.json; a move on purpose rewrites its line as\n%q: %d,",
					key, r.NodesAllocated, want, key+" nodes_allocated", r.NodesAllocated)
			}
		}
		want, ok := golden[key]
		line := fmt.Sprintf("%q: %d,", key, r.Ops)
		switch {
		case !ok:
			if r.Ops > 0 {
				t.Logf("not gated: %s", line)
			}
		case float64(max(r.Ops, want)-min(r.Ops, want)) > 0.01*float64(want):
			t.Errorf("%s counted %d kernel ops, %d in testdata/counts.json; a move on purpose rewrites its line as\n%s", key, r.Ops, want, line)
		}
	}
	for key := range golden {
		if strings.HasPrefix(key, name+"/") && !seen[key] {
			t.Errorf("testdata/counts.json gates %s, which %s no longer records", key, name)
		}
	}
}

func TestThresholdExperiment(t *testing.T) {
	runExperiment(t, "threshold", experiments.Threshold, "threshold")
}

func TestFig2aExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	runExperiment(t, "fig2a", experiments.Fig2aAt(2000), "Figure 2(a)")
}

func TestFig2bcExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	runExperiment(t, "fig2bc", experiments.Fig2bcAt(2000), "Figures 2(b,c)")
}

func TestFig4Experiment(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	runExperiment(t, "fig4", experiments.Fig4, "Figure 4:")
}

func TestFig5aExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	runExperiment(t, "fig5a", experiments.Fig5a, "Figure 5(a):")
}

func TestFig5bExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	runExperiment(t, "fig5b", experiments.Fig5b, "Figure 5(b)")
}

func TestFig6bExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	runExperiment(t, "fig6b", experiments.Fig6b, "Figure 6(b)")
}

func TestFig6cExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	runExperiment(t, "fig6c", experiments.Fig6c, "Figure 6(c)")
}

func TestTable1Experiment(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	runExperiment(t, "table1", experiments.Table1, "Table 1")
}
