// Shared AST/type helpers for the analyzers.
package analysis

import (
	"go/ast"
	"go/types"
)

// exprPath flattens a chain of identifiers and field selectors into a
// dotted path ("g.table", "run"), or "" for expressions that are not a
// plain path. Slice operations are looked through, so g.table[:n] and
// g.table name the same storage location.
func exprPath(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		base := exprPath(t.X)
		if base == "" {
			return ""
		}
		return base + "." + t.Sel.Name
	case *ast.SliceExpr:
		return exprPath(t.X)
	case *ast.ParenExpr:
		return exprPath(t.X)
	}
	return ""
}

// typeIsSlice reports whether t's underlying type is a slice.
func typeIsSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// typeIsMap reports whether t's underlying type is a map.
func typeIsMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
