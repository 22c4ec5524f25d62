package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Suppression directives.
//
// A finding can be silenced with a comment of the form
//
//	//lint:ignore <analyzer>[,<analyzer>...] <justification>
//
// placed either on the line of the finding (trailing comment) or on the line
// directly above it. The justification is mandatory: a directive without one
// does not suppress anything and instead produces its own diagnostic, so
// every deliberate exception to a contract carries its reason in the source.
const directivePrefix = "//lint:ignore "

type directive struct {
	analyzers []string // analyzer names the directive covers
	just      string   // justification text (may be empty; then invalid)
	pos       token.Pos
	line      int
	file      string
}

// parseDirectives extracts every lint:ignore directive from the files.
func parseDirectives(fset *token.FileSet, files []*ast.File) []*directive {
	var ds []*directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, directivePrefix))
				names, just := splitDirective(rest)
				p := fset.Position(c.Pos())
				ds = append(ds, &directive{
					analyzers: names,
					just:      just,
					pos:       c.Pos(),
					line:      p.Line,
					file:      p.Filename,
				})
			}
		}
	}
	return ds
}

// splitDirective separates the analyzer-name list from the justification.
// The list is comma-separated and may contain spaces after the commas
// ("a,b why" and "a, b why" both name two analyzers): name tokens keep being
// consumed as long as the accumulated list ends with a comma, and everything
// after the last name token is the justification.
func splitDirective(rest string) (names []string, just string) {
	s := rest
	var list strings.Builder
	for {
		i := strings.IndexAny(s, " \t")
		if i < 0 {
			list.WriteString(s)
			s = ""
			break
		}
		list.WriteString(s[:i])
		s = strings.TrimLeft(s[i:], " \t")
		if !strings.HasSuffix(list.String(), ",") {
			break
		}
	}
	for _, n := range strings.Split(list.String(), ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names, strings.TrimSpace(s)
}

func (d *directive) covers(name string, file string, line int) bool {
	if d.file != file || (d.line != line && d.line != line-1) {
		return false
	}
	for _, a := range d.analyzers {
		if a == name {
			return true
		}
	}
	return false
}

// applySuppressions drops diagnostics covered by a well-formed directive and
// appends a diagnostic for each malformed (justification-free) directive.
func applySuppressions(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	ds := parseDirectives(fset, files)
	if len(ds) == 0 {
		return diags
	}
	live := diags[:0]
	for _, diag := range diags {
		if !suppressed(fset, ds, diag) {
			live = append(live, diag)
		}
	}
	diags = live
	for _, d := range ds {
		if d.just == "" {
			diags = append(diags, Diagnostic{
				Pos:      d.pos,
				Analyzer: "lintdirective",
				Message:  "lint:ignore directive needs a justification: //lint:ignore <analyzer> <why this exception is sound>",
			})
		}
	}
	return diags
}

// suppressed reports whether a justified directive covers diag. An
// unjustified directive suppresses nothing; its own diagnostic explains why
// the finding is still live.
func suppressed(fset *token.FileSet, ds []*directive, diag Diagnostic) bool {
	p := fset.Position(diag.Pos)
	for _, d := range ds {
		if d.just != "" && d.covers(diag.Analyzer, p.Filename, p.Line) {
			return true
		}
	}
	return false
}
