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
