package experiments_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// The experiment drivers are exercised end-to-end at reduced scale; the
// heavy ones are skipped under -short. Each must produce its header row,
// record its timed cells as rows under its own name, and complete without
// strategy disagreements (the experiments cross-check BDD and SQL results
// internally and fail on mismatch).

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
	}
}

func TestThresholdExperiment(t *testing.T) {
	runExperiment(t, "threshold", experiments.Threshold, "threshold")
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
