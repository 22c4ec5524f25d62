package main

// faults_test.go is the suite's regression test: every analyzer answers to a
// fault seeded into a real function of this module. Each row copies the
// module's Go source into a temporary directory, seeds its fault with one or
// two textual edits, and runs `go vet -vettool=cvlint` on the row's
// packages; the row passes
// only if its analyzer reports in the edited file and no other analyzer
// reports at all. A row whose anchor no longer matches exactly once fails by
// name, so the table cannot rot silently when the code it mutates moves.

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// A seededFault is one row: applying the edits to file (relative to the
// module root) must make analyzer, and only analyzer, report in file when
// pkg is vetted. Each edit replaces its first string, which must occur
// exactly once in file, by its second.
type seededFault struct {
	name, analyzer string
	pkg, file      string
	edits          [][2]string
}

var seededFaults = []seededFault{
	{
		name: "checkOne compares ErrNoIndex with !=", analyzer: "sentinelcmp",
		pkg: "./internal/core", file: "internal/core/core.go",
		edits: [][2]string{{
			"if !errors.Is(err, logic.ErrNoIndex) && !errors.Is(err, bdd.ErrBudget) {",
			"if err != logic.ErrNoIndex && !errors.Is(err, bdd.ErrBudget) {",
		}},
	},
	{
		name: "an index update pins its new root but never stores it", analyzer: "protect",
		pkg: "./internal/index", file: "internal/index/index.go",
		edits: [][2]string{{
			"\t\tk.Protect(next)\n\t\tk.Unprotect(ix.root)\n\t\tix.root = next\n",
			"\t\tk.Protect(next)\n\t\tk.Unprotect(ix.root)\n",
		}},
	},
	{
		name: "Server.Check applies updates", analyzer: "kernelowner",
		pkg: "./internal/service", file: "internal/service/backend.go",
		edits: [][2]string{{
			"\ts.nChecks.Add(1)\n",
			"\ts.nChecks.Add(1)\n\ts.chk.Apply(nil)\n",
		}},
	},
	{
		name: "Server.Witnesses collects the primary kernel", analyzer: "kernelowner",
		pkg: "./internal/service", file: "internal/service/backend.go",
		edits: [][2]string{{
			"\ts.nWitnesses.Add(1)\n",
			"\ts.nWitnesses.Add(1)\n\ts.chk.Store().Kernel().GC()\n",
		}},
	},
	{
		name: "publishVersion clears caches from a goroutine", analyzer: "kernelowner",
		pkg: "./internal/service", file: "internal/service/service.go",
		edits: [][2]string{{
			"\ts.pool.Publish(v)\n\ts.replicaOK.Store(true)\n",
			"\ts.pool.Publish(v)\n\tgo func() { s.chk.Store().Kernel().ClearCaches() }()\n\ts.replicaOK.Store(true)\n",
		}},
	},
	{
		name: "publishVersion replays the replicas' demand from a goroutine", analyzer: "kernelowner",
		pkg: "./internal/service", file: "internal/service/service.go",
		edits: [][2]string{{
			"\ts.chk.ReadProjections(s.pool.TakeDemand())\n",
			"\tgo func() { s.chk.ReadProjections(s.pool.TakeDemand()) }()\n",
		}},
	},
	{
		name: "history takes histMu and memo.mu in both orders", analyzer: "lockorder",
		pkg: "./internal/service", file: "internal/service/history.go",
		edits: [][2]string{{
			"\ts.histOrder = append(s.histOrder, epoch)\n\treturn e, true\n",
			"\ts.histOrder = append(s.histOrder, epoch)\n\ts.memo.mu.Lock()\n\ts.memo.mu.Unlock()\n\treturn e, true\n",
		}, {
			"func (s *Server) dropHistoryEntry(epoch uint64) {\n",
			"func (s *Server) dropHistoryEntry(epoch uint64) {\n\ts.memo.mu.Lock()\n\tdefer s.memo.mu.Unlock()\n",
		}},
	},
}

// diagLine matches one finding as the unitchecker prints it.
var diagLine = regexp.MustCompile(`^(.+?):\d+:\d+: \[(\w+)\] `)

func TestSeededFaults(t *testing.T) {
	start := time.Now()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	tool := filepath.Join(t.TempDir(), "cvlint")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("building cvlint: %v\n%s", err, out)
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

	// The clean copy runs first and alone: it fills the build cache that
	// every row's copy then shares (-trimpath keeps the copies' paths out of
	// the cache keys).
	t.Run("clean copy", func(t *testing.T) {
		for _, d := range vetCopy(t, tool, root, "./...", nil) {
			t.Errorf("unexpected finding on the unmodified tree: %s", d)
		}
	})
	t.Run("faults", func(t *testing.T) {
		for _, f := range seededFaults {
			t.Run(f.name, func(t *testing.T) {
				t.Parallel()
				diags := vetCopy(t, tool, root, f.pkg, &f)
				hit := false
				for _, d := range diags {
					switch {
					case d.analyzer != f.analyzer:
						t.Errorf("another analyzer reported: %s", d)
					case d.file == f.file:
						hit = true
						t.Log(d)
					}
				}
				if !hit {
					t.Errorf("%s did not report in %s; findings: %v", f.analyzer, f.file, diags)
				}
			})
		}
	})
	t.Logf("%d seeded faults and the clean copy vetted in %v", len(seededFaults), time.Since(start).Round(100*time.Millisecond))
}

// finding is one parsed cvlint diagnostic.
type finding struct {
	file, analyzer, line string
}

func (d finding) String() string { return d.line }

// vetCopy copies the module under root into a temporary directory, applies
// the fault's edits (none when f is nil), vets pkg there with tool, and
// returns the findings, file names relative to the copy.
func vetCopy(t *testing.T, tool, root, pkg string, f *seededFault) []finding {
	t.Helper()
	dir := t.TempDir()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel == ".git" || rel == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		if rel != "go.mod" && !strings.HasSuffix(rel, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dir, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying the module: %v", err)
	}
	if f != nil {
		path := filepath.Join(dir, f.file)
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
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("go", "vet", "-vettool="+tool, pkg)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS="+strings.TrimSpace(os.Getenv("GOFLAGS")+" -trimpath"))
	out, vetErr := cmd.CombinedOutput()
	var diags []finding
	for _, line := range strings.Split(string(out), "\n") {
		m := diagLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(dir, file)
		}
		if rel, err := filepath.Rel(dir, file); err == nil {
			file = filepath.ToSlash(rel)
		}
		diags = append(diags, finding{file: file, analyzer: m[2], line: line})
	}
	if vetErr != nil && len(diags) == 0 {
		t.Fatalf("go vet %s failed without a finding: %v\n%s", pkg, vetErr, out)
	}
	return diags
}
