package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// testAnalyzer reports one diagnostic on every integer literal, giving the
// suppression tests a predictable diagnostic per line.
var testAnalyzer = &Analyzer{
	Name: "testcheck",
	Doc:  "reports every integer literal",
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.INT {
					pass.Reportf(lit.Pos(), "integer literal %s", lit.Value)
				}
				return true
			})
		}
		return nil
	},
}

const suppressSrc = `package p

func f() {
	//lint:ignore testcheck covered by the integration test, sampled here on purpose
	_ = 1
	_ = 2
	//lint:ignore testcheck
	_ = 3
	_ = 4 //lint:ignore other this directive names a different analyzer
	_ = 5 //lint:ignore testcheck trailing directives work too
}
`

func TestSuppressions(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", suppressSrc, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	diags, _, err := Run(fset, []*ast.File{f}, nil, nil, nil, nil, []*Analyzer{testAnalyzer})
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	type got struct {
		line     int
		analyzer string
	}
	var gots []got
	for _, d := range diags {
		gots = append(gots, got{fset.Position(d.Pos).Line, d.Analyzer})
	}

	// Literal 1 is suppressed by the justified directive above it.
	// Literal 2 has no directive and stays.
	// Literal 3's directive has no justification: the finding stays AND the
	// directive earns its own lintdirective diagnostic (on line 7).
	// Literal 4's trailing directive names a different analyzer: stays.
	// Literal 5's trailing justified directive suppresses it.
	want := []got{
		{6, "testcheck"}, // _ = 2
		{7, "lintdirective"},
		{8, "testcheck"}, // _ = 3
		{9, "testcheck"}, // _ = 4
	}
	if len(gots) != len(want) {
		t.Fatalf("got %d diagnostics %v, want %d %v", len(gots), gots, len(want), want)
	}
	for i := range want {
		if gots[i] != want[i] {
			t.Errorf("diagnostic %d: got %+v, want %+v", i, gots[i], want[i])
		}
	}

	for _, d := range diags {
		if d.Analyzer == "lintdirective" && !strings.Contains(d.Message, "justification") {
			t.Errorf("lintdirective message should demand a justification, got %q", d.Message)
		}
	}
}

// secondAnalyzer duplicates testAnalyzer under another name so comma-list
// directives have two real analyzers to cover.
var secondAnalyzer = &Analyzer{
	Name: "othercheck",
	Doc:  "reports every integer literal, again",
	Run:  testAnalyzer.Run,
}

// TestSuppressionCommaList is the regression test for the directive parser
// cutting the analyzer list at the first space: "a, b why" must suppress
// both a and b, with "why" as the justification — not just a.
func TestSuppressionCommaList(t *testing.T) {
	const src = `package p

func f() {
	//lint:ignore testcheck,othercheck compact comma list covers both
	_ = 1
	//lint:ignore testcheck, othercheck spaced comma list covers both too
	_ = 2
	//lint:ignore testcheck only the first analyzer is named
	_ = 3
	_ = 4
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	diags, _, err := Run(fset, []*ast.File{f}, nil, nil, nil, nil, []*Analyzer{testAnalyzer, secondAnalyzer})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	type got struct {
		line     int
		analyzer string
	}
	var gots []got
	for _, d := range diags {
		gots = append(gots, got{fset.Position(d.Pos).Line, d.Analyzer})
	}
	// Literals 1 and 2 are fully suppressed for both analyzers; literal 3
	// keeps its othercheck finding; literal 4 keeps both.
	want := []got{
		{9, "othercheck"},
		{10, "testcheck"},
		{10, "othercheck"},
	}
	if len(gots) != len(want) {
		t.Fatalf("got %d diagnostics %v, want %d %v", len(gots), gots, len(want), want)
	}
	for i := range want {
		if gots[i] != want[i] {
			t.Errorf("diagnostic %d: got %+v, want %+v", i, gots[i], want[i])
		}
	}
}

// TestRunDropsSuppressedKeepsFacts: a suppressed finding is gone from Run's
// result, while the facts the reporting analyzer exported survive.
func TestRunDropsSuppressedKeepsFacts(t *testing.T) {
	const src = `package p

func f() {
	_ = 1 //lint:ignore factcheck the fact matters here, not the finding
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	factAnalyzer := &Analyzer{
		Name: "factcheck",
		Doc:  "reports every integer literal and exports a fact for f",
		Run: func(pass *Pass) error {
			if err := testAnalyzer.Run(pass); err != nil {
				return err
			}
			return pass.ExportFact("f", true)
		},
	}
	diags, facts, err := Run(fset, []*ast.File{f}, nil, nil, nil, nil, []*Analyzer{factAnalyzer})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("want no diagnostics, got %+v", diags)
	}
	if got := string(facts["factcheck"]["f"]); got != "true" {
		t.Fatalf("exported fact: got %q, want %q", got, "true")
	}
}
