package analysis

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// importingUnit writes one Go file that imports fmt under t's temp dir and
// returns the listing of the unit it forms.
func importingUnit(t *testing.T, importMap map[string]string) *listed {
	t.Helper()
	dir := t.TempDir()
	src := "package p\n\nimport \"fmt\"\n\nvar _ = fmt.Sprintf\n"
	if err := os.WriteFile(filepath.Join(dir, "unit.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return &listed{ImportPath: "p", Dir: dir, GoFiles: []string{"unit.go"}, ImportMap: importMap}
}

// TestLoadMissingExportData: a unit whose import has no export data, as
// when a stale build cache hands the loader an incomplete listing, is
// refused by the name of the missing package.
func TestLoadMissingExportData(t *testing.T) {
	m := &Module{Fset: token.NewFileSet(), exports: map[string]string{}}
	_, err := m.check(importingUnit(t, nil), nil)
	if err == nil || !strings.Contains(err.Error(), `no export data for "fmt"`) {
		t.Errorf("got %v, want the missing export data of \"fmt\" named", err)
	}
}

// TestLoadImportMap: an import the unit's ImportMap sends to a test variant
// is looked up under the variant, not under the plain path that go list
// leaves unmapped; so the export data of plain fmt does not stand in for
// the missing variant.
func TestLoadImportMap(t *testing.T) {
	const variant = "fmt [p.test]"
	m := &Module{Fset: token.NewFileSet(), exports: map[string]string{"fmt": filepath.Join(t.TempDir(), "fmt.a")}}
	_, err := m.check(importingUnit(t, map[string]string{"fmt": variant}), nil)
	if err == nil || !strings.Contains(err.Error(), `no export data for "`+variant+`"`) {
		t.Errorf("got %v, want the missing export data of %q named", err, variant)
	}
}
