// Package unitchecker implements the command-line protocol that `go vet
// -vettool=...` requires of an analysis tool, on top of the standard library
// only. It is the build-system driver for cmd/cvlint.
//
// The protocol (the same one golang.org/x/tools/go/analysis/unitchecker
// speaks, reimplemented here because this module vendors nothing):
//
//	cvlint -V=full     print a version line for the build cache
//	cvlint -flags      describe supported flags in JSON
//	cvlint foo.cfg     analyze the compilation unit described by foo.cfg
//
// The .cfg file is JSON written by cmd/go (see buildVetConfig in
// cmd/go/internal/work): it names the unit's Go files and maps each import
// path to the export-data file the compiler already produced, so the unit is
// type-checked here without re-compiling its dependencies.
//
// Facts ride the same protocol: cmd/go runs the tool over each dependency
// first (VetxOnly mode), keeps the facts file the tool writes to VetxOutput,
// and hands the collected files to dependent units through PackageVetx. The
// checker therefore analyzes dependency units for real (discarding their
// diagnostics — those were, or will be, reported when the dependency itself
// is vetted) so the function summaries of internal/analysis/facts.go cross
// package boundaries. Standard-library units are skipped outright: the
// cvlint analyzers neither report on nor summarize std code, and skipping
// keeps `go vet -vettool=cvlint std-importing-package` cheap.
package unitchecker

import (
	"crypto/sha256"
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
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// Config mirrors the JSON compilation-unit description produced by cmd/go
// for vet tools. Field names must match; unknown fields are ignored.
type Config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main implements the vet-tool protocol for the given analyzers and exits.
// It returns only on usage errors.
func Main(progname string, analyzers []*analysis.Analyzer) {
	args := os.Args[1:]
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full":
			printVersion(progname)
			os.Exit(0)
		case args[0] == "-flags":
			// No tool-specific flags; an empty JSON list tells cmd/go so.
			fmt.Println("[]")
			os.Exit(0)
		case filepath.Ext(args[0]) == ".cfg":
			runUnit(args[0], analyzers)
			os.Exit(0)
		}
	}
	fmt.Fprintf(os.Stderr, "usage: %s [-V=full | -flags | unit.cfg]\n", progname)
	os.Exit(2)
}

// printVersion emits the line cmd/go's build cache requires: for a "devel"
// tool the last field must be a buildID, which we derive from the
// executable's own content hash so recompiled checkers invalidate cached
// vet results.
func printVersion(progname string) {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version devel buildID=%x\n", progname, h.Sum(nil)[:16])
}

// runUnit analyzes one compilation unit and exits non-zero when unsuppressed
// diagnostics were reported (the convention go vet expects from a vet tool).
func runUnit(cfgFile string, analyzers []*analysis.Analyzer) {
	cfg, err := readConfig(cfgFile)
	if err != nil {
		fatal(err)
	}
	if cfg.Standard[cfg.ImportPath] || isStdUnit(cfg) {
		// The suite's contracts only cover this module's declarations;
		// skipping std units keeps dependency-mode runs instant and, more
		// importantly, keeps std-internal code from exporting facts (net/http
		// calling its own WriteHeader must not read as an acknowledgment).
		writeVetx(cfg, nil)
		return
	}
	fset := token.NewFileSet()
	diags, facts, err := analyze(fset, cfg, analyzers)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return
		}
		fatal(err)
	}
	writeVetx(cfg, facts)
	if cfg.VetxOnly {
		// Dependency-mode run: cmd/go only wanted the facts. Diagnostics
		// belong to the run that names this unit directly.
		return
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// isStdUnit reports whether the unit itself is a standard-library package.
// cmd/go's Standard map only covers the unit's dependencies, so the unit is
// recognized by its source living under GOROOT/src.
func isStdUnit(cfg *Config) bool {
	if len(cfg.GoFiles) == 0 {
		return false
	}
	root := filepath.Join(build.Default.GOROOT, "src") + string(filepath.Separator)
	return strings.HasPrefix(cfg.GoFiles[0], root)
}

// writeVetx persists the unit's exported facts where cmd/go asked for them.
// An empty file (no facts) is valid and keeps the action cacheable.
func writeVetx(cfg *Config, facts analysis.PackageFacts) {
	if cfg.VetxOutput == "" {
		return
	}
	data, err := analysis.EncodeFacts(facts)
	if err != nil {
		fatal(err)
	}
	_ = os.WriteFile(cfg.VetxOutput, data, 0o666)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "cvlint: %v\n", err)
	os.Exit(1)
}

func readConfig(filename string) (*Config, error) {
	data, err := os.ReadFile(filename)
	if err != nil {
		return nil, err
	}
	cfg := new(Config)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("cannot decode vet config %s: %v", filename, err)
	}
	if len(cfg.GoFiles) == 0 {
		return nil, fmt.Errorf("package has no Go files: %s", cfg.ImportPath)
	}
	return cfg, nil
}

// analyze parses and type-checks the unit, then runs the analyzers with the
// dependency facts cmd/go collected, returning diagnostics and the facts
// this unit exports.
func analyze(fset *token.FileSet, cfg *Config, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, analysis.PackageFacts, error) {
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	imp := makeImporter(fset, cfg)
	tconf := &types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	isStd := func(path string) bool { return cfg.Standard[path] }
	imported, err := readImportedFacts(cfg)
	if err != nil {
		return nil, nil, err
	}
	return analysis.Run(fset, files, pkg, info, isStd, imported, analyzers)
}

// readImportedFacts loads the facts files of the unit's dependencies. A
// missing or empty file means "no facts" (older binaries and std units write
// empty ones); a present-but-corrupt file is an error, since silently losing
// facts would un-verify interprocedural contracts.
func readImportedFacts(cfg *Config) (map[string]analysis.PackageFacts, error) {
	if len(cfg.PackageVetx) == 0 {
		return nil, nil
	}
	imported := make(map[string]analysis.PackageFacts, len(cfg.PackageVetx))
	for path, file := range cfg.PackageVetx {
		data, err := os.ReadFile(file)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, fmt.Errorf("reading facts of %q: %v", path, err)
		}
		pf, err := analysis.DecodeFacts(data)
		if err != nil {
			return nil, fmt.Errorf("facts of %q: %v", path, err)
		}
		if len(pf) > 0 {
			imported[path] = pf
		}
	}
	return imported, nil
}

// makeImporter resolves imports through the export-data files cmd/go listed
// in the config, honoring the vendoring map.
func makeImporter(fset *token.FileSet, cfg *Config) types.Importer {
	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		return compilerImporter.Import(path)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
