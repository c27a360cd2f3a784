package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// releaseListDirs are the packages whose code runs under a query's Run.
var releaseListDirs = []string{".", "../sql", "../pyramid"}

// TestPoolsOnlyThroughReleaseLists parses the non-test files of engine,
// sql and pyramid and rejects, outside run.go and pool.go:
//
//   - a reference to a pool: a package-level variable of pool.go, a call of
//     a run.go or pool.go function that returns a pool, or the
//     colstore.Pool type itself — so every Get and Put goes through a
//     release list;
//   - a call of the package-level RecycleRows, which under a run would
//     return a vector the run still tracks, for its drain to put twice.
//
// Only direct references are seen; the two files are the pool machinery.
func TestPoolsOnlyThroughReleaseLists(t *testing.T) {
	fset := token.NewFileSet()
	var vars, getters []string
	for _, name := range []string{"pool.go", "run.go"} {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && d.Tok == token.VAR {
						for _, n := range vs.Names {
							vars = append(vars, n.Name)
						}
					}
				}
			case *ast.FuncDecl:
				if d.Type.Results != nil && mentionsPoolType(d.Type.Results) {
					getters = append(getters, d.Name.Name)
				}
			}
		}
	}
	if !slices.Contains(vars, "rowPool") || len(getters) == 0 {
		t.Fatalf("pool variables %v, pool getters %v: the scan reads the wrong files", vars, getters)
	}

	files := 0
	for _, dir := range releaseListDirs {
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(names) == 0 {
			t.Fatalf("package %s: %v, %d files", dir, err, len(names))
		}
		for _, name := range names {
			base := filepath.Base(name)
			if strings.HasSuffix(base, "_test.go") || dir == "." && (base == "run.go" || base == "pool.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files++
			ast.Inspect(f, func(n ast.Node) bool {
				var bad string
				switch n := n.(type) {
				case *ast.Ident:
					if dir == "." && slices.Contains(vars, n.Name) {
						bad = "pool variable " + n.Name
					}
				case *ast.SelectorExpr:
					if isPkgSel(n, "colstore", "Pool") {
						bad = "colstore.Pool"
					}
				case *ast.CallExpr:
					switch fn := n.Fun.(type) {
					case *ast.Ident:
						if dir == "." && fn.Name == "RecycleRows" {
							bad = "package-level RecycleRows"
						}
						if slices.Contains(getters, fn.Name) {
							bad = "pool getter " + fn.Name
						}
					case *ast.SelectorExpr:
						if isPkgSel(fn, "engine", "RecycleRows") {
							bad = "package-level RecycleRows"
						}
						if slices.Contains(getters, fn.Sel.Name) {
							bad = "pool getter " + fn.Sel.Name
						}
					}
				}
				if bad != "" {
					t.Errorf("%s: %s outside run.go and pool.go; draw and recycle through a release list", fset.Position(n.Pos()), bad)
				}
				return true
			})
		}
	}
	if files < 10 {
		t.Fatalf("scanned %d files; the scan reads the wrong directories", files)
	}
}

// mentionsPoolType reports whether n mentions the colstore.Pool type.
func mentionsPoolType(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && isPkgSel(sel, "colstore", "Pool") {
			found = true
		}
		return !found
	})
	return found
}

// isPkgSel reports whether sel is pkg.name.
func isPkgSel(sel *ast.SelectorExpr, pkg, name string) bool {
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg && sel.Sel.Name == name
}
