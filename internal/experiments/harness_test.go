package experiments

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The §5 harness (this package and cmd/cvbench, which reaches the layers
// through it) may import only the packages the paper describes. The service
// stack — obs, replica, store, service, shard — is measured by bench/
// against a real cvserved, not from here.
func TestExperimentsImportOnlyPaperLayers(t *testing.T) {
	allowed := map[string]bool{
		"bdd": true, "fdd": true, "relation": true, "index": true, "logic": true, "stats": true,
		"ordering": true, "sqlengine": true, "core": true, "datagen": true, "experiments": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources found: %v", err)
	}
	for _, file := range append(files, "../../cmd/cvbench/main.go") {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value) // the parser accepted it
			if layer, ok := strings.CutPrefix(path, "repro/internal/"); ok && !allowed[layer] {
				t.Errorf("%s imports %s: the §5 harness may import only the paper's layers", file, path)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	ramp := make([]time.Duration, 100)
	for i := range ramp {
		ramp[i] = time.Duration(i + 1)
	}
	ties := []time.Duration{1, 5, 5, 5, 8}
	for _, tc := range []struct {
		sorted []time.Duration
		pct    int
		want   time.Duration
	}{
		{ramp[:1], 50, 1}, {ramp[:1], 99, 1},
		{ramp[:2], 50, 1}, {ramp[:2], 95, 2},
		{ties, 50, 5}, {ties, 95, 8},
		{ramp, 50, 50}, {ramp, 95, 95}, {ramp, 99, 99}, {ramp, 100, 100},
	} {
		if got := percentile(tc.sorted, tc.pct); got != tc.want {
			t.Errorf("percentile(n=%d, %d) = %d, want %d", len(tc.sorted), tc.pct, got, tc.want)
		}
	}
	if r := (BenchRow{}).withPercentiles([]time.Duration{9, 1, 5}); r.P50NS != 5 || r.P95NS != 9 || r.P99NS != 9 {
		t.Errorf("withPercentiles must sort before it reads: %+v", r)
	}
}
