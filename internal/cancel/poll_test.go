package cancel

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// pollingPackages are the packages whose loops run under a query's token.
var pollingPackages = []string{"engine", "grid", "sql", "pyramid"}

// TestNoPollInSteppingLoop parses the non-test files of pollingPackages
// and rejects a Cancelled() call inside a loop that steps through a range:
// a range clause, or a for loop with a post statement. Such a loop polls
// per element — masked by a counter or not — or is a block loop written by
// hand; block loops poll by ranging over Token.Blocks instead. A
// Cancelled() call anywhere else is allowed: a one-off check after a pass,
// or the exit test of a loop over rounds. Only direct calls are seen, not
// a helper that polls on a loop's behalf.
func TestNoPollInSteppingLoop(t *testing.T) {
	fset := token.NewFileSet()
	polls := 0
	for _, pkg := range pollingPackages {
		names, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(names) == 0 {
			t.Fatalf("package %s: %v, %d files", pkg, err, len(names))
		}
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				if call, ok := n.(*ast.CallExpr); ok && isPoll(call) {
					polls++
					if loop := steppingLoop(stack); loop != nil {
						t.Errorf("%s: Cancelled() inside the loop at line %d; range over Token.Blocks instead",
							fset.Position(call.Pos()), fset.Position(loop.Pos()).Line)
					}
				}
				stack = append(stack, n)
				return true
			})
		}
	}
	if polls == 0 {
		t.Fatal("no Cancelled() call found; the scan reads the wrong files")
	}
}

// isPoll reports whether call is x.Cancelled().
func isPoll(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Cancelled" && len(call.Args) == 0
}

// steppingLoop returns the innermost stepping loop on stack inside the
// innermost enclosing function, or nil.
func steppingLoop(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch l := stack[i].(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			return nil
		case *ast.RangeStmt:
			return l
		case *ast.ForStmt:
			if l.Post != nil {
				return l
			}
		}
	}
	return nil
}
