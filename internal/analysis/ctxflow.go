// ctxflow: request deadlines must reach the executor (ROADMAP, PR 9).
//
// The serving layer's whole deadline story — client timeout clamped into a
// request context, EWMA doomed-deadline shedding at admission, drain
// cancellation through the run contexts — only works if HTTP handlers run
// queries through the *Context executor variants. A handler that calls
// Executor.Query or PreparedQuery.Run instead silently detaches the query
// from its request: the client can disconnect, the deadline can pass, the
// drain can fire, and the scan keeps running with an admission slot held.
//
// The check is example-driven like the rest of the suite: a "handler" is
// any function or closure with a *Request-typed parameter (the net/http
// handler shape), and inside one — including closures it spawns — every
// call to a context-less query method on an Executor or PreparedQuery
// receiver is flagged with its *Context replacement. Non-handler code
// (REPLs, benchmarks, tests) may use the plain variants freely.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxFlowAnalyzer enforces context-threaded query execution in handlers.
var CtxFlowAnalyzer = &Analyzer{
	Name: "ctxflow",
	Doc:  "HTTP handlers must run queries through the *Context executor variants so deadlines and drain cancellation propagate",
	Run:  runCtxFlow,
}

// ctxlessQueryMethods maps receiver type → context-less method → the
// *Context variant a handler must use instead.
var ctxlessQueryMethods = map[string]map[string]string{
	"Executor": {
		"Query": "QueryContext",
	},
	"PreparedQuery": {
		"Run":       "RunContext",
		"RunTraced": "RunContext",
	},
}

func runCtxFlow(pass *Pass) {
	// Handlers can nest (a handler closure inside a handler method), so
	// bodies are scanned wherever they appear and duplicate findings are
	// collapsed by position.
	reported := map[token.Pos]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var ft *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ft, body = fn.Type, fn.Body
			case *ast.FuncLit:
				ft, body = fn.Type, fn.Body
			default:
				return true
			}
			if body != nil && isHandlerFuncType(pass, ft) {
				checkHandlerBody(pass, body, reported)
			}
			return true
		})
	}
}

// isHandlerFuncType reports whether the signature carries a *Request
// parameter — the net/http handler shape (http.HandlerFunc itself, or a
// helper a handler delegates the request to).
func isHandlerFuncType(pass *Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, fld := range ft.Params.List {
		t := pass.TypesInfo.TypeOf(fld.Type)
		if t == nil {
			continue
		}
		ptr, ok := t.Underlying().(*types.Pointer)
		if !ok {
			continue
		}
		if named, ok := ptr.Elem().(*types.Named); ok && named.Obj().Name() == "Request" {
			return true
		}
	}
	return false
}

// checkHandlerBody flags every context-less query call in the body,
// descending into nested closures: a goroutine spawned by a handler is
// still request-scoped work.
func checkHandlerBody(pass *Pass, body *ast.BlockStmt, reported map[token.Pos]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || reported[call.Pos()] {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv := namedTypeName(pass.TypesInfo.TypeOf(sel.X))
		variants, ok := ctxlessQueryMethods[recv]
		if !ok {
			return true
		}
		if want, ok := variants[sel.Sel.Name]; ok {
			reported[call.Pos()] = true
			pass.Reportf(call.Pos(),
				"handler calls %s.%s without a context; use %s so the request deadline and drain cancellation propagate",
				recv, sel.Sel.Name, want)
		}
		return true
	})
}
