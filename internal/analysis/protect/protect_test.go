package protect_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/protect"
)

func TestProtect(t *testing.T) {
	analysistest.Run(t, "../testdata", protect.Analyzer, "protects")
}
