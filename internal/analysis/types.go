package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Shared type predicates for the suite's analyzers.

// IsErrorType reports whether t is the built-in error interface (the type of
// every errors.New sentinel).
func IsErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// SentinelError reports whether obj is a package-level error variable with a
// sentinel-style name (ErrX) declared outside the standard library. Such
// values arrive at call sites wrapped (fmt.Errorf("%w", ...)), so direct
// comparison misses them; errors.Is is required.
func SentinelError(pass *Pass, obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	if v.Parent() != v.Pkg().Scope() {
		return false // not package-level
	}
	name := v.Name()
	if !strings.HasPrefix(name, "Err") || len(name) == len("Err") {
		return false
	}
	if c := name[len("Err")]; c < 'A' || c > 'Z' {
		return false
	}
	if !IsErrorType(v.Type()) {
		return false
	}
	// Standard-library sentinels (io.EOF, sql.ErrNoRows, ...) are documented
	// as never wrapped by their own packages; the repository's contracts
	// only cover its own sentinels, which do arrive wrapped.
	return !pass.Stdlib(v.Pkg().Path())
}

// ObjectOf resolves an identifier or the Sel of a selector to its object.
func ObjectOf(info *types.Info, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return info.ObjectOf(e)
	case *ast.SelectorExpr:
		return info.ObjectOf(e.Sel)
	case *ast.ParenExpr:
		return ObjectOf(info, e.X)
	}
	return nil
}
