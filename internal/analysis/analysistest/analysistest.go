// Package analysistest runs cvlint analyzers over fixture packages under a
// testdata/src directory and checks their diagnostics against // want
// comments, in the style of golang.org/x/tools/go/analysis/analysistest.
//
// Fixture packages are ordinary Go source that may import both standard
// library packages and this module's packages (repro/internal/bdd, ...).
// Type information for those imports comes from `go list -deps -export
// -json`, which compiles them through the build cache and reports the
// export-data file of every transitive dependency; the fixture itself is
// then type-checked directly from source. This keeps the harness
// stdlib-only while giving analyzers fully typed packages.
//
// Expectations are trailing comments of the form
//
//	k.Protect(r) // want `regexp`
//
// where the backquoted (or double-quoted) argument is a regular expression
// matched against analyzer diagnostics reported on that line. Multiple
// expectations may appear in one comment. Every diagnostic must match an
// expectation and every expectation must be matched.
package analysistest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// Run analyzes each named fixture package (a directory under root/src,
// where root is a testdata directory relative to the test) with the
// analyzer and checks // want expectations.
func Run(t *testing.T, root string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		pkg := pkg
		t.Run(pkg, func(t *testing.T) {
			t.Helper()
			runOne(t, a, filepath.Join(root, "src", pkg))
		})
	}
}

func runOne(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	fset := token.NewFileSet()
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no fixture files in %s (%v)", dir, err)
	}
	sort.Strings(matches)
	var files []*ast.File
	for _, name := range matches {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		files = append(files, f)
	}

	// Resolve the fixture's imports (and their transitive closure) to
	// export-data files via the go command.
	var imports []string
	for _, f := range files {
		for _, im := range f.Imports {
			imports = append(imports, strings.Trim(im.Path.Value, `"`))
		}
	}
	exp, err := exportData(imports)
	if err != nil {
		t.Fatalf("resolving fixture imports: %v", err)
	}

	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exp.files[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	tconf := &types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkgPath := filepath.Base(dir)
	pkg, err := tconf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", dir, err)
	}

	// Fixtures are single packages: interprocedural cases exercise the
	// package-local call graph and in-package summaries, so no imported
	// facts are supplied. A fixture line carrying a justified //lint:ignore
	// expects no diagnostic.
	diags, _, err := analysis.Run(fset, files, pkg, info, exp.isStd, nil, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	checkWants(t, fset, files, diags)
}

// want is one expectation parsed from a // want comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(c.Text[idx+len("// want "):], -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: pat})
				}
			}
		}
	}
	for _, d := range diags {
		p := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if w.matched || w.file != p.Filename || w.line != p.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", p, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

// exportInfo caches `go list` results per process: fixture packages share
// imports, and the go command dominates the harness runtime.
type exportInfo struct {
	files map[string]string // package path -> export data file
	std   map[string]bool
}

func (e *exportInfo) isStd(path string) bool { return e.std[path] }

var (
	exportMu    sync.Mutex
	exportCache = map[string]*exportInfo{}
)

// exportData asks the go command for the export-data files and std-ness of
// the transitive closure of the given import paths.
func exportData(imports []string) (*exportInfo, error) {
	sort.Strings(imports)
	imports = dedup(imports)
	key := strings.Join(imports, ",")
	exportMu.Lock()
	defer exportMu.Unlock()
	if e, ok := exportCache[key]; ok {
		return e, nil
	}
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Export,Standard"}, imports...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list -export: %v\n%s", err, errb.String())
	}
	e := &exportInfo{files: map[string]string{}, std: map[string]bool{}}
	dec := json.NewDecoder(&out)
	for {
		var p struct {
			ImportPath string
			Export     string
			Standard   bool
		}
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Export != "" {
			e.files[p.ImportPath] = p.Export
		}
		e.std[p.ImportPath] = p.Standard
	}
	exportCache[key] = e
	return e, nil
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

func dedup(ss []string) []string {
	var out []string
	for i, s := range ss {
		if i == 0 || ss[i-1] != s {
			out = append(out, s)
		}
	}
	return out
}
