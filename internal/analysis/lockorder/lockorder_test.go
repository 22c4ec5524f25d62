package lockorder_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/lockorder"
)

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, "../testdata", lockorder.Analyzer, "lockorders", "lockcross")
}
