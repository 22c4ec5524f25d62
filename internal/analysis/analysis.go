// Package analysis is a self-contained static-analysis framework for the
// repository's domain-specific lint suite (cmd/cvlint). It mirrors the shape
// of golang.org/x/tools/go/analysis — an Analyzer owns a Run function over a
// type-checked Pass and emits Diagnostics — but is built entirely on the
// standard library so the module stays dependency-free.
//
// The framework deliberately supports only what the cvlint analyzers need:
// no analyzer-to-analyzer requirements, no per-analyzer flags. It is however
// modestly interprocedural: a package-local call graph (callgraph.go) lets an
// analyzer follow static calls within the package under analysis, and
// function-summary facts (facts.go) carry what an analyzer learned about a
// package's declarations to the analyses of its importers, through the vetx
// files `go vet` threads along the build graph. Two drivers exist:
// internal/analysis/unitchecker speaks the JSON protocol of `go vet
// -vettool=...`, and internal/analysis/analysistest type-checks fixture
// packages under testdata/src for the analyzers' own tests.
//
// See DESIGN.md, section "Static contracts", for the contracts each shipped
// analyzer enforces and why the type system cannot.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives. It must be a valid Go identifier.
	Name string

	// Doc is the help text: first sentence is the summary.
	Doc string

	// Run applies the analyzer to a package. It reports findings through
	// pass.Report/Reportf. The returned error aborts the whole run and is
	// reserved for internal analyzer failures, not findings.
	Run func(pass *Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// A Pass presents one type-checked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// IsStdPkg reports whether the package with the given path belongs to
	// the Go standard library. Drivers that know (the unitchecker's config
	// carries the set; analysistest asks `go list`) supply it; analyzers
	// use it to scope rules to this module's own declarations. A nil value
	// means "unknown" and is treated as not-standard.
	IsStdPkg func(path string) bool

	// ImportedFacts holds, per imported package path, the facts exported
	// when that package was analyzed. Analyzers read it through ImportFact;
	// a nil map simply yields no facts.
	ImportedFacts map[string]PackageFacts

	report   func(Diagnostic)
	exported PackageFacts
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // name of the reporting analyzer
}

// Report emits a diagnostic.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.report(d)
}

// Reportf emits a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Stdlib reports whether path names a standard-library package according to
// the driver; false when the driver does not know.
func (p *Pass) Stdlib(path string) bool {
	return p.IsStdPkg != nil && p.IsStdPkg(path)
}

// Run applies every analyzer to the package described by (fset, files, pkg,
// info), drops the findings that //lint:ignore directives suppress, and
// returns the rest sorted by position, with the PackageFacts the analyzers
// exported for this package. imported carries the facts of the package's
// dependencies (nil is fine). Suppression directives that are malformed (no
// justification) are themselves returned as diagnostics, so a vet run
// cannot go quiet on the back of an unexplained ignore.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, isStd func(string) bool, imported map[string]PackageFacts, analyzers []*Analyzer) ([]Diagnostic, PackageFacts, error) {
	var diags []Diagnostic
	exported := PackageFacts{}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:      a,
			Fset:          fset,
			Files:         files,
			Pkg:           pkg,
			TypesInfo:     info,
			IsStdPkg:      isStd,
			ImportedFacts: imported,
			report:        func(d Diagnostic) { diags = append(diags, d) },
			exported:      exported,
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("analyzer %s: %v", a.Name, err)
		}
	}
	diags = applySuppressions(fset, files, diags)
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, exported, nil
}
