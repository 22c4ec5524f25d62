package analysis_test

// module_test.go runs the suite over this module, in process: one `go list`
// call lists every unit, each is type-checked from source, and every
// analyzer sees all of them at once. The unmodified module must report
// nothing. Every analyzer also answers to a fault seeded into a real
// function of this module: each row edits one file with one or two textual
// edits, as an overlay of the loaded module, and passes only if its analyzer
// reports in the edited file and no other analyzer reports at all. A row
// whose anchor no longer matches exactly once fails by name, so the table
// cannot rot silently when the code it mutates moves.

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/sentinelcmp"
)

// suite is the full analyzer set, in reporting order.
var suite = []*analysis.Analyzer{
	sentinelcmp.Analyzer,
	lockorder.Analyzer,
}

// A seededFault is one row: applying the edits to file (relative to the
// module root) must make analyzer, and only analyzer, report in file. Each
// edit replaces its first string, which must occur exactly once in file, by
// its second.
type seededFault struct {
	name, analyzer, file string
	edits                [][2]string
}

var seededFaults = []seededFault{
	{
		name: "checkOne compares ErrNoIndex with !=", analyzer: "sentinelcmp",
		file: "internal/core/core.go",
		edits: [][2]string{{
			"if !errors.Is(err, logic.ErrNoIndex) && !errors.Is(err, bdd.ErrBudget) {",
			"if err != logic.ErrNoIndex && !errors.Is(err, bdd.ErrBudget) {",
		}},
	},
	{
		name: "history takes histMu and memo.mu in both orders", analyzer: "lockorder",
		file: "internal/service/history.go",
		edits: [][2]string{{
			"\ts.histOrder = append(s.histOrder, epoch)\n\treturn e, true\n",
			"\ts.histOrder = append(s.histOrder, epoch)\n\ts.memo.mu.Lock()\n\ts.memo.mu.Unlock()\n\treturn e, true\n",
		}, {
			"func (s *Server) dropHistoryEntry(epoch uint64) {\n",
			"func (s *Server) dropHistoryEntry(epoch uint64) {\n\ts.memo.mu.Lock()\n\tdefer s.memo.mu.Unlock()\n",
		}},
	},
}

func TestSeededFaults(t *testing.T) {
	start := time.Now()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]int{}
	for _, f := range seededFaults {
		rows[f.analyzer]++
	}
	for _, a := range suite {
		if rows[a.Name] == 0 {
			t.Errorf("analyzer %s has no seeded-fault row: add one, or retire the analyzer", a.Name)
		}
	}
	t.Logf("module loaded in %v", time.Since(start).Round(10*time.Millisecond))

	t.Run("clean module", func(t *testing.T) {
		analyzed := map[string]int{}
		for _, f := range mod.Files() {
			analyzed[mod.Fset.Position(f.Package).Filename]++
		}
		onDisk := goFiles(t, root)
		for _, name := range onDisk {
			if n := analyzed[name]; n != 1 {
				t.Errorf("%s analyzed %d times, want once", name, n)
			}
		}
		if len(analyzed) != len(onDisk) {
			t.Errorf("%d files analyzed, %d .go files outside testdata", len(analyzed), len(onDisk))
		}
		t.Logf("%d units, %d files, each analyzed once", len(mod.Pkgs), len(analyzed))

		edges := lockorder.Edges(mod.Pkgs)
		var lines []string
		for e, pos := range edges {
			p := mod.Fset.Position(pos)
			rel, _ := filepath.Rel(root, p.Filename)
			lines = append(lines, fmt.Sprintf("%s → %s at %s:%d", e[0], e[1], rel, p.Line))
		}
		sort.Strings(lines)
		t.Logf("lockorder: %d acquisition edges\n\t%s", len(edges), strings.Join(lines, "\n\t"))

		for _, d := range run(t, mod) {
			t.Errorf("unexpected finding on the unmodified module: %s", d)
		}
	})
	for _, f := range seededFaults {
		t.Run(f.name, func(t *testing.T) {
			path := filepath.Join(root, f.file)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			text := string(src)
			for _, e := range f.edits {
				if n := strings.Count(text, e[0]); n != 1 {
					t.Fatalf("anchor %q matches %d times in %s, want exactly once: re-anchor the row", e[0], n, f.file)
				}
				text = strings.Replace(text, e[0], e[1], 1)
			}
			m, err := mod.Overlay(path, []byte(text))
			if err != nil {
				t.Fatal(err)
			}
			hit := false
			for _, d := range run(t, m) {
				switch {
				case d.analyzer != f.analyzer:
					t.Errorf("another analyzer reported: %s", d)
				case d.file == path:
					hit = true
					t.Log(d)
				}
			}
			if !hit {
				t.Errorf("%s did not report in %s", f.analyzer, f.file)
			}
		})
	}
	t.Logf("%d seeded faults and the clean module analyzed in %v", len(seededFaults), time.Since(start).Round(10*time.Millisecond))
}

// finding is one diagnostic with its position resolved.
type finding struct {
	file, analyzer, line string
}

func (d finding) String() string { return d.line }

// run applies the suite to m.
func run(t *testing.T, m *analysis.Module) []finding {
	t.Helper()
	diags, err := analysis.Run(m, suite)
	if err != nil {
		t.Fatal(err)
	}
	var out []finding
	for _, d := range diags {
		p := m.Fset.Position(d.Pos)
		out = append(out, finding{file: p.Filename, analyzer: d.Analyzer, line: fmt.Sprintf("%s: [%s] %s", p, d.Analyzer, d.Message)})
	}
	return out
}

// goFiles lists the .go files of the module under root that the go command
// builds: none under testdata, or under a directory whose name starts with
// "." or "_".
func goFiles(t *testing.T, root string) []string {
	t.Helper()
	var names []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
		} else if strings.HasSuffix(path, ".go") {
			names = append(names, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
