// Shared AST/type helpers for the analyzers.
package analysis

import (
	"go/ast"
	"go/types"
)

// inspectWithStack walks every node under root, invoking fn with the node
// and the stack of its ancestors (outermost first, not including the node
// itself). Returning false from fn prunes the subtree.
func inspectWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		keep := fn(n, stack)
		if keep {
			stack = append(stack, n)
		}
		return keep
	})
}

// exprPath flattens a chain of identifiers and field selectors into a
// dotted path ("g.table", "run"), or "" for expressions that are not a
// plain path. Slice/index operations are looked through, so g.table[:n]
// and g.table mean the same storage location for tracking purposes.
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

// calleeName returns the bare name of a call's function: "f" for f(...),
// "m" for x.m(...) — and whether the callee is a method-style selector.
func calleeName(call *ast.CallExpr) (name string, isSelector bool) {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name, false
	case *ast.SelectorExpr:
		return fn.Sel.Name, true
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := fn.X.(*ast.Ident); ok {
			return id.Name, false
		}
	case *ast.IndexListExpr:
		if id, ok := fn.X.(*ast.Ident); ok {
			return id.Name, false
		}
	}
	return "", false
}

// namedFieldType renders the bare type name of a receiver/field type
// expression ("Run" for *Run, "Run[T]" collapses to "Run").
func namedFieldType(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return namedFieldType(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.IndexExpr:
		return namedFieldType(t.X)
	case *ast.IndexListExpr:
		return namedFieldType(t.X)
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
