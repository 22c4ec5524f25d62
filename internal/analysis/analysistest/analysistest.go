// Package analysistest runs an analyzer over fixture packages under a
// testdata/src directory and checks its diagnostics against // want
// comments, in the style of golang.org/x/tools/go/analysis/analysistest.
//
// Fixture packages are ordinary Go source that may import both standard
// library packages and this module's packages (repro/internal/bdd, ...).
// They are loaded by analysis.Load, the loader the suite runs the module
// with: `go list` accepts a fixture's testdata/src/<pkg> directory and
// compiles its imports through the build cache.
//
// Expectations are trailing comments of the form
//
//	if err == bdd.ErrBudget { // want `regexp`
//
// where the backquoted (or double-quoted) argument is a regular expression
// matched against analyzer diagnostics reported on that line. Multiple
// expectations may appear in one comment. Every diagnostic must match an
// expectation and every expectation must be matched.
package analysistest

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run analyzes each named fixture package (a directory under root/src,
// where root is a testdata directory relative to the test), together with
// the packages in the directories below it, with the analyzer and checks
// // want expectations.
func Run(t *testing.T, root string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		t.Run(pkg, func(t *testing.T) {
			t.Helper()
			dir, err := filepath.Abs(filepath.Join(root, "src", pkg))
			if err != nil {
				t.Fatal(err)
			}
			m, err := analysis.Load(".", dir+"/...")
			if err != nil {
				t.Fatalf("loading fixture %s: %v", dir, err)
			}
			diags, err := analysis.Run(m, []*analysis.Analyzer{a})
			if err != nil {
				t.Fatalf("running %s: %v", a.Name, err)
			}
			checkWants(t, m.Fset, m.Files(), diags)
		})
	}
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
