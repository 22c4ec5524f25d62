// Package analysis is a self-contained static-analysis framework for the
// repository's domain-specific lint suite. It mirrors the shape of
// golang.org/x/tools/go/analysis — an Analyzer owns a Run function over a
// type-checked Pass and emits Diagnostics — but is built entirely on the
// standard library so the module stays dependency-free.
//
// The framework supports only what the suite's analyzers need: no
// analyzer-to-analyzer requirements, no per-analyzer flags. A Pass presents
// the whole module at once: Load (load.go) lists every unit of the module
// with one `go list` call and type-checks each from source, so an analyzer
// that looks across packages (lockorder) sees every function body, and
// callgraph.go lists each function's static calls. The suite runs in
// process from this package's tests (module_test.go), and
// internal/analysis/analysistest checks each analyzer against its fixture
// packages under testdata/src.
//
// See DESIGN.md, section "Static contracts", for the contracts each shipped
// analyzer enforces and why the type system cannot.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. It must be a valid Go
	// identifier.
	Name string

	// Doc is the help text: first sentence is the summary.
	Doc string

	// Run applies the analyzer to the module. It reports findings through
	// pass.Report/Reportf. The returned error aborts the whole run and is
	// reserved for internal analyzer failures, not findings.
	Run func(pass *Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// A Pass presents the type-checked module to one Analyzer.
type Pass struct {
	*Module
	Analyzer *Analyzer

	report func(Diagnostic)
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

// Run applies every analyzer to the module and returns the findings sorted
// by position.
func Run(m *Module, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Module:   m,
			Analyzer: a,
			report:   func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %v", a.Name, err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}
