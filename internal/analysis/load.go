package analysis

// Loading the module.
//
// One `go list -test -deps -export -json` call describes every unit the
// patterns match and compiles their dependencies through the build cache,
// reporting each one's export-data file. Each unit is then parsed and
// type-checked here from source against the export data of its imports,
// resolved through the unit's ImportMap (which sends a test's imports to
// the variants compiled for it). A package's test variant (the package with
// its in-package _test.go files) stands in for the plain package, external
// _test packages are units of their own, and the generated test mains and
// the dependencies recompiled for a test are skipped, so every .go file is
// analyzed exactly once.

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
	"slices"
	"strings"
)

// A Package is one type-checked unit of the module.
type Package struct {
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Module is every unit Load found, parsed into one FileSet.
type Module struct {
	Fset *token.FileSet
	Pkgs []*Package

	units   []*listed         // Pkgs[i] was checked from units[i]
	exports map[string]string // package ID -> export-data file
	std     map[string]bool
}

// listed is one package as `go list -json` describes it.
type listed struct {
	ImportPath, Dir, ForTest, Export string
	GoFiles                          []string
	ImportMap                        map[string]string
	Standard, DepOnly                bool
}

// Load lists the packages that patterns match, run from dir, with their
// tests, and type-checks every unit of them.
func Load(dir string, patterns ...string) (*Module, error) {
	cmd := exec.Command("go", append([]string{"list", "-test", "-deps", "-export",
		"-json=ImportPath,Dir,ForTest,Export,GoFiles,ImportMap,Standard,DepOnly"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	m := &Module{Fset: token.NewFileSet(), exports: map[string]string{}, std: map[string]bool{}}
	unitOf := map[string]int{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listed)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		m.exports[p.ImportPath] = p.Export
		m.std[p.ImportPath] = p.Standard
		path, _, _ := strings.Cut(p.ImportPath, " [")
		if p.Standard || p.DepOnly || strings.HasSuffix(path, ".test") ||
			p.ForTest != "" && path != p.ForTest && path != p.ForTest+"_test" {
			continue
		}
		if i, ok := unitOf[path]; ok {
			if p.ForTest != "" {
				m.units[i] = p
			}
			continue
		}
		unitOf[path] = len(m.units)
		m.units = append(m.units, p)
	}
	for _, u := range m.units {
		pkg, err := m.check(u, nil)
		if err != nil {
			return nil, err
		}
		m.Pkgs = append(m.Pkgs, pkg)
	}
	return m, nil
}

// Files returns the files of every unit, in unit order.
func (m *Module) Files() []*ast.File {
	var files []*ast.File
	for _, p := range m.Pkgs {
		files = append(files, p.Files...)
	}
	return files
}

// Stdlib reports whether path names a standard-library package.
func (m *Module) Stdlib(path string) bool { return m.std[path] }

// Overlay returns the module with file (named as Load found it) reading
// src instead: the unit that holds file is parsed and type-checked again,
// against the same export data, and every other unit is shared with m.
func (m *Module) Overlay(file string, src []byte) (*Module, error) {
	for i, u := range m.units {
		for _, name := range u.GoFiles {
			if filepath.Join(u.Dir, name) != file {
				continue
			}
			pkg, err := m.check(u, map[string][]byte{file: src})
			if err != nil {
				return nil, err
			}
			o := *m
			o.Pkgs = slices.Clone(m.Pkgs)
			o.Pkgs[i] = pkg
			return &o, nil
		}
	}
	return nil, fmt.Errorf("%s is in no unit of the module", file)
}

// check parses u's files, taking those overlay names from it, and
// type-checks them.
func (m *Module) check(u *listed, overlay map[string][]byte) (*Package, error) {
	path, _, _ := strings.Cut(u.ImportPath, " [")
	pkg := &Package{Path: path, Info: &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}}
	for _, name := range u.GoFiles {
		name = filepath.Join(u.Dir, name)
		var src any
		if b, ok := overlay[name]; ok {
			src = b
		}
		f, err := parser.ParseFile(m.Fset, name, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}
	imp := importer.ForCompiler(m.Fset, "gc", func(path string) (io.ReadCloser, error) {
		if id, ok := u.ImportMap[path]; ok {
			path = id
		}
		if m.exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(m.exports[path])
	})
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", build.Default.GOARCH)}
	var err error
	if pkg.Types, err = conf.Check(path, m.Fset, pkg.Files, pkg.Info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return pkg, nil
}
