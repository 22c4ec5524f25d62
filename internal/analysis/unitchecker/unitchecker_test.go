package unitchecker

// Error-path coverage for the vet-tool protocol driver: the happy path is
// exercised end to end by the analyzers' analysistest suites and by CI's
// `go vet -vettool=cvlint` run, but the failure modes — a config whose
// export data is missing, an import map that cannot resolve, a facts file
// that is corrupt — only ever fire in the field, which is exactly
// where they must not be discovered first.

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// writeUnitFile puts one Go file for a unit under t's temp dir.
func writeUnitFile(t *testing.T, src string) string {
	t.Helper()
	name := filepath.Join(t.TempDir(), "unit.go")
	if err := os.WriteFile(name, []byte(src), 0o644); err != nil {
		t.Fatalf("writing unit file: %v", err)
	}
	return name
}

const importingSrc = `package p

import "fmt"

var _ = fmt.Sprintf
`

// TestAnalyzeMissingExportData: the import map resolves the path but no
// export-data file was supplied for it, as happens when a stale build cache
// hands vet an incomplete PackageFile map.
func TestAnalyzeMissingExportData(t *testing.T) {
	cfg := &Config{
		ID:          "p",
		Compiler:    "gc",
		ImportPath:  "p",
		GoFiles:     []string{writeUnitFile(t, importingSrc)},
		ImportMap:   map[string]string{"fmt": "fmt"},
		PackageFile: map[string]string{}, // nothing for "fmt"
	}
	_, _, err := analyze(token.NewFileSet(), cfg, nil)
	if err == nil {
		t.Fatal("analyze succeeded without export data for an import")
	}
	if !strings.Contains(err.Error(), "no export data") {
		t.Errorf("error should name the missing export data, got: %v", err)
	}
}

// TestAnalyzeMalformedImportMap: the unit imports a path the config's
// ImportMap does not mention at all.
func TestAnalyzeMalformedImportMap(t *testing.T) {
	cfg := &Config{
		ID:         "p",
		Compiler:   "gc",
		ImportPath: "p",
		GoFiles:    []string{writeUnitFile(t, importingSrc)},
		ImportMap:  map[string]string{}, // "fmt" unmapped
	}
	_, _, err := analyze(token.NewFileSet(), cfg, nil)
	if err == nil {
		t.Fatal("analyze succeeded with an import missing from ImportMap")
	}
	if !strings.Contains(err.Error(), "can't resolve import") {
		t.Errorf("error should name the unresolvable import, got: %v", err)
	}
}

// TestReadConfigErrors: config files that are unreadable, not JSON, or
// describe a unit with no Go files are all rejected before analysis.
func TestReadConfigErrors(t *testing.T) {
	if _, err := readConfig(filepath.Join(t.TempDir(), "absent.cfg")); err == nil {
		t.Error("readConfig accepted a nonexistent file")
	}

	bad := filepath.Join(t.TempDir(), "bad.cfg")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readConfig(bad); err == nil || !strings.Contains(err.Error(), "cannot decode vet config") {
		t.Errorf("malformed JSON config: got %v", err)
	}

	empty := filepath.Join(t.TempDir(), "empty.cfg")
	if err := os.WriteFile(empty, []byte(`{"ImportPath":"q"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readConfig(empty); err == nil || !strings.Contains(err.Error(), "no Go files") {
		t.Errorf("config without Go files: got %v", err)
	}
}

// TestFactsRoundTripThroughVetx: what a dependency-mode run writes to
// VetxOutput comes back intact through readImportedFacts.
func TestFactsRoundTripThroughVetx(t *testing.T) {
	facts := analysis.PackageFacts{
		"lockorder": {"(*Server).run": []byte(`{"global":true}`)},
	}
	out := filepath.Join(t.TempDir(), "dep.vetx")
	writeVetx(&Config{VetxOutput: out}, facts)

	cfg := &Config{PackageVetx: map[string]string{"repro/internal/dep": out}}
	imported, err := readImportedFacts(cfg)
	if err != nil {
		t.Fatalf("readImportedFacts: %v", err)
	}
	raw, ok := imported["repro/internal/dep"]["lockorder"]["(*Server).run"]
	if !ok || string(raw) != `{"global":true}` {
		t.Fatalf("fact did not round-trip: %v", imported)
	}

	// An empty vetx (pre-facts binaries, std units) reads as no facts.
	empty := filepath.Join(t.TempDir(), "empty.vetx")
	writeVetx(&Config{VetxOutput: empty}, nil)
	imported, err = readImportedFacts(&Config{PackageVetx: map[string]string{"d": empty}})
	if err != nil || len(imported) != 0 {
		t.Fatalf("empty vetx: got %v, %v", imported, err)
	}

	// A missing vetx file is tolerated; a corrupt one is not.
	imported, err = readImportedFacts(&Config{PackageVetx: map[string]string{"d": filepath.Join(t.TempDir(), "gone.vetx")}})
	if err != nil || len(imported) != 0 {
		t.Fatalf("missing vetx: got %v, %v", imported, err)
	}
	corrupt := filepath.Join(t.TempDir(), "corrupt.vetx")
	if err := os.WriteFile(corrupt, []byte("{{{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readImportedFacts(&Config{PackageVetx: map[string]string{"d": corrupt}}); err == nil {
		t.Error("corrupt vetx file was accepted")
	}
}
