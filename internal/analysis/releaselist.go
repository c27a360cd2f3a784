// releaselist: the release-list discipline (ROADMAP, PR 6).
//
// Every pooled acquisition on a query path goes through the per-run
// release list, so that the lifecycle drain keeps pool accounting correct
// on every exit path — error, cancel, panic — without per-return audits.
// Concretely, inside any function that runs under a lifecycle record (a
// *engine.Run or the SQL layer's runState is in scope as receiver or
// parameter):
//
//   - a raw pool acquisition (getRowBuf, getRangeBuf, getF64Buf, the
//     exported engine.AcquireRows) must either be wrapped in a tracking
//     call at the acquisition site (run.TrackRows(getRowBuf(n)), or the
//     region select's track-after-production candidate batches,
//     run.trackRanges(cur.AppendRanges(getRangeBuf(0), budget))), or —
//     for buffers a call may still grow — be bound to a variable/field
//     that a later TrackRows/SwapRows/trackRanges/trackF64 call in the
//     same function registers;
//   - recycling must go through the run (run.RecycleRows), never the bare
//     package-level RecycleRows/RecycleF64, which would leave a stale
//     entry in the release list and double-recycle on unwind.
//
// Functions with no run in scope (legacy nil-run paths, benchmarks, the
// pool machinery itself) are out of scope: the invariant is about the
// lifecycle path.
package analysis

import (
	"go/ast"
	"go/types"
)

// runTypeNames are the named types whose presence in a function's
// receiver/parameters marks it as running under a query lifecycle.
var runTypeNames = map[string]bool{
	"Run":      true,
	"runState": true,
}

// acquireFuncNames are the raw (untracked) pool acquisition functions.
var acquireFuncNames = map[string]bool{
	"getRowBuf":   true,
	"getRangeBuf": true,
	"getF64Buf":   true,
	"AcquireRows": true, // package-level engine.AcquireRows; the Run method is the tracked form
	"AcquireF64":  true, // package-level engine.AcquireF64; the Run method is the tracked form
}

// trackMethodNames are the release-list registration methods on the run.
var trackMethodNames = map[string]bool{
	"TrackRows":   true,
	"SwapRows":    true,
	"AcquireRows": true,
	"trackRanges": true,
	"trackF64":    true,
	"TrackF64":    true,
	"AcquireF64":  true,
}

// bareRecycleNames are the package-level recycle functions that bypass the
// release list.
var bareRecycleNames = map[string]bool{
	"RecycleRows": true,
	"recycleF64":  true,
	"RecycleF64":  true,
}

// ReleaseListAnalyzer enforces the release-list discipline.
var ReleaseListAnalyzer = &Analyzer{
	Name: "releaselist",
	Doc:  "pooled acquisitions on a *engine.Run path must register in the run's release list and recycle through the run",
	Run:  runReleaseList,
}

func runReleaseList(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !runScoped(fd) || runTypeMachinery(fd) {
				continue
			}
			checkRunScopedFunc(pass, fd)
		}
	}
}

// runScoped reports whether fd has a lifecycle record in scope: a receiver
// or parameter whose named type is Run or runState.
func runScoped(fd *ast.FuncDecl) bool {
	var lists []*ast.FieldList
	if fd.Recv != nil {
		lists = append(lists, fd.Recv)
	}
	if fd.Type.Params != nil {
		lists = append(lists, fd.Type.Params)
	}
	for _, fl := range lists {
		for _, field := range fl.List {
			if runTypeNames[namedFieldType(field.Type)] {
				return true
			}
		}
	}
	return false
}

// runTypeMachinery reports whether fd is a method ON a run type — the
// release-list implementation itself, which necessarily touches the pools
// directly.
func runTypeMachinery(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return false
	}
	return runTypeNames[namedFieldType(fd.Recv.List[0].Type)]
}

// checkRunScopedFunc applies both release-list checks inside one function.
func checkRunScopedFunc(pass *Pass, fd *ast.FuncDecl) {
	inspectWithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, isSel := calleeName(call)
		switch {
		case acquireFuncNames[name] && (!isSel || pkgQualified(pass, call)):
			if !trackedAcquisition(pass, fd, call, stack) {
				pass.Reportf(call.Pos(),
					"pooled acquisition %s(...) is not registered in the run's release list; wrap it in run.TrackRows/trackRanges/trackF64 (or track the produced buffer before use)",
					name)
			}
		case bareRecycleNames[name] && (!isSel || pkgQualified(pass, call)):
			pass.Reportf(call.Pos(),
				"%s bypasses the run's release list; recycle through the run (run.RecycleRows and friends) so the entry untracks",
				name)
		}
		return true
	})
}

// pkgQualified reports whether a selector call is package-qualified
// (engine.AcquireRows) rather than a method call on a value.
func pkgQualified(pass *Pass, call *ast.CallExpr) bool {
	return isPackageCallee(pass, call)
}

// isPackageCallee reports whether call's selector base names an imported
// package (engine.AcquireRows) as opposed to a value (run.AcquireRows).
func isPackageCallee(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	_, isPkg := pass.TypesInfo.Uses[id].(*types.PkgName)
	return isPkg
}

// trackedAcquisition reports whether the acquisition call is registered in
// the release list: syntactically wrapped in a tracking call, or bound to
// a variable/field that a later tracking call in the same function passes.
func trackedAcquisition(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, stack []ast.Node) bool {
	// Wrapped at the acquisition site: any enclosing call is a tracking
	// method (run.TrackRows(getRowBuf(n)), including through intermediate
	// producer calls like run.trackRanges(im.RangesInto(..., getRangeBuf(0)))).
	for i := len(stack) - 1; i >= 0; i-- {
		if outer, ok := stack[i].(*ast.CallExpr); ok && outer != call {
			if name, isSel := calleeName(outer); isSel && trackMethodNames[name] && !isPackageCallee(pass, outer) {
				return true
			}
		}
	}
	// Track-after-production: the acquisition's value is bound to a path
	// (x, or s.f through a composite literal) and some tracking call in
	// the function mentions that path as an argument.
	path := boundPath(call, stack)
	if path == "" {
		return false
	}
	tracked := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if tracked {
			return false
		}
		tc, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, isSel := calleeName(tc); !isSel || !trackMethodNames[name] {
			return true
		}
		for _, arg := range tc.Args {
			if exprPath(arg) == path {
				tracked = true
				return false
			}
		}
		return true
	})
	return tracked
}

// boundPath resolves the variable or field path an acquisition's result is
// bound to: `v := getRowBuf(n)` yields "v" (slicing looked through),
// `g := groupHash{table: getRowBuf(n)}` yields "g.table". Returns "" when
// the value doesn't flow into a nameable location.
func boundPath(call *ast.CallExpr, stack []ast.Node) string {
	// Walk up through value-preserving wrappers to the binding site.
	cur := ast.Node(call)
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.SliceExpr, *ast.ParenExpr:
			cur = stack[i]
			continue
		case *ast.AssignStmt:
			for j, rhs := range p.Rhs {
				if rhs == cur && j < len(p.Lhs) {
					return exprPath(p.Lhs[j])
				}
			}
			return ""
		case *ast.KeyValueExpr:
			if i >= 1 {
				if cl, ok := stack[i-1].(*ast.CompositeLit); ok {
					key, kok := p.Key.(*ast.Ident)
					if !kok {
						return ""
					}
					// The composite literal itself must be bound to a name.
					clStack := stack[:i-1]
					base := boundCompositePath(cl, clStack)
					if base == "" {
						return ""
					}
					return base + "." + key.Name
				}
			}
			return ""
		default:
			return ""
		}
	}
	return ""
}

// boundCompositePath resolves the name a composite literal is assigned to.
func boundCompositePath(cl *ast.CompositeLit, stack []ast.Node) string {
	cur := ast.Node(cl)
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.UnaryExpr, *ast.ParenExpr:
			cur = stack[i]
			continue
		case *ast.AssignStmt:
			for j, rhs := range p.Rhs {
				if rhs == cur && j < len(p.Lhs) {
					return exprPath(p.Lhs[j])
				}
			}
			return ""
		default:
			return ""
		}
	}
	return ""
}
