package experiments_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// The experiment drivers are exercised end-to-end at reduced scale; the
// heavy ones are skipped under -short. Each must produce its header row and
// complete without strategy disagreements (the drivers cross-check BDD and
// SQL results internally and fail on mismatch).

func runExperiment(t *testing.T, name string, f func(experiments.Config) error, wantHeader string) {
	t.Helper()
	var buf bytes.Buffer
	cfg := experiments.Config{Out: &buf, Seed: 7}
	if err := f(cfg); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !strings.Contains(buf.String(), wantHeader) {
		t.Fatalf("%s output missing %q:\n%s", name, wantHeader, buf.String())
	}
}

func TestThresholdExperiment(t *testing.T) {
	runExperiment(t, "threshold", experiments.Threshold, "threshold")
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

func TestReorderExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	var buf bytes.Buffer
	var rows []experiments.BenchRow
	cfg := experiments.Config{
		Out: &buf, Seed: 7,
		Record: func(r experiments.BenchRow) { rows = append(rows, r) },
	}
	if err := experiments.Reorder(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sifting a pessimal schema order") {
		t.Fatalf("missing header:\n%s", buf.String())
	}
	if len(rows) != 3 {
		t.Fatalf("want check_before, check_after and sift rows, got %d: %+v", len(rows), rows)
	}
	byName := map[string]experiments.BenchRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	before, after := byName["check_before"], byName["check_after"]
	if before.Nodes == 0 || after.Nodes == 0 {
		t.Fatalf("rows missing node counts: %+v", rows)
	}
	if float64(after.Nodes) > 0.8*float64(before.Nodes) {
		t.Fatalf("sift saved only %d -> %d nodes, want >= 20%% drop", before.Nodes, after.Nodes)
	}
	// Quantiles are recorded samples, so they are ordered and none exceeds
	// the slowest one.
	for _, r := range []experiments.BenchRow{before, after} {
		slowest, _ := r.Params["slowest_ns"].(int64)
		if !(0 < r.P50NS && r.P50NS <= r.P95NS && r.P95NS <= r.P99NS && r.P99NS <= slowest) {
			t.Fatalf("%s: want 0 < p50 <= p95 <= p99 <= slowest sample, got %d %d %d %d",
				r.Name, r.P50NS, r.P95NS, r.P99NS, slowest)
		}
	}
	if after.P95NS >= before.P95NS {
		t.Fatalf("p95 did not improve: %dns before, %dns after", before.P95NS, after.P95NS)
	}
	if byName["sift"].NsPerOp <= 0 {
		t.Fatalf("sift row missing pause time: %+v", byName["sift"])
	}
}
