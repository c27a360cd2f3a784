package engine

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// epochWriters are the only functions that write the backing state of an
// epoch-owned table. Each runs under the table's lock and keeps the epoch
// contract itself: a first touch publishes rows that were already counted,
// a load records what the append arm then publishes, and VectorTable's
// Append bumps the epoch while ensurePostings builds what it dropped.
var epochWriters = []string{
	"PointCloud.touchLocked",
	"PointCloud.loadResident",
	"PointCloud.loadDeferred",
	"VectorTable.Append",
	"VectorTable.ensurePostings",
}

// TestEpochStateWrittenOnlyByWriters parses the non-test files of engine
// and rejects a write to a protected field outside epochWriters. The
// protected fields are derived from the declarations: every slice- or
// map-typed field of a struct that has an epoch field. A write is an
// assignment, an op-assignment, ++ or --, a store through an index or a
// slice, or a delete, copy or clear, to x.f where f is protected and x is
// a receiver, parameter or local declared with the table's type, or bound
// to a composite literal of it or to an engine function returning it.
// Only such direct writes are seen: not one through an alias, a struct
// field or a map element. sql and every other package cannot name these
// unexported fields at all, so Go's visibility rules hold them there. A
// listed writer that no longer writes fails the test too, so the list
// stays exact.
func TestEpochStateWrittenOnlyByWriters(t *testing.T) {
	fset, files := parseEngine(t)
	tables := readEpochTables(files)
	for table, fields := range map[string][]string{
		"PointCloud":  {"cols", "deferred"},
		"VectorTable": {"geoms", "envs", "numeric", "classPost"},
	} {
		for _, f := range fields {
			if !tables.fields[table][f] {
				t.Fatalf("protected fields %v lack %s.%s: the scan reads the wrong files", tables.fields, table, f)
			}
		}
	}
	wrote := map[string]bool{}
	for _, f := range files {
		bad, writers := tables.writes(fset, f)
		for _, b := range bad {
			t.Errorf("%s outside the epoch writers %v; a write that skips the epoch contract leaves cached plans validating stale state", b, epochWriters)
		}
		for _, w := range writers {
			wrote[w] = true
		}
	}
	for _, w := range epochWriters {
		if !wrote[w] {
			t.Errorf("%s writes no protected field; drop it from epochWriters", w)
		}
	}
}

// TestEpochCapturedBeforeReads parses every non-test file of the module
// outside benchmark/ and testdata, and rejects a method call X.M(...)
// placed before the function's first assignment from X.Epoch(): a plan
// built from state read before the capture validates as fresh after an
// append slipped in between. Function literals are not entered. At least
// the three captures the planner and the pyramid cache make must be found.
func TestEpochCapturedBeforeReads(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	var captures []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == filepath.Join(root, "benchmark")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		bad, caps := readsBeforeCapture(fset, f)
		for _, b := range bad {
			t.Errorf("%s; capture the epoch before reading table state", b)
		}
		captures = append(captures, caps...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"buildPlan b.pc", "buildPlan b.vt", "For pc"} {
		if !slices.Contains(captures, want) {
			t.Fatalf("captures %v lack %q: the scan reads the wrong files", captures, want)
		}
	}
}

// TestEpochRulesCatchFixtures runs both rules over small sources: each
// violating case must be reported and its clean twin must not.
func TestEpochRulesCatchFixtures(t *testing.T) {
	_, files := parseEngine(t)
	tables := readEpochTables(files)
	for _, c := range []struct {
		name, src string
		bad       bool
	}{
		{"field store", `func (pc *PointCloud) reset() { pc.cols = nil }`, true},
		{"field store on another type", `func reset() { lp := &loadPass{}; lp.cols = nil }`, false},
		{"index store", `func reset(pc *PointCloud) { pc.cols[0] = nil }`, true},
		{"index store in a writer", `func (pc *PointCloud) touchLocked() { pc.cols[0] = nil }`, false},
		{"map store", `func reset() { var vt VectorTable; vt.numeric["x"] = nil }`, true},
		{"map read", `func reset() { var vt VectorTable; _ = vt.numeric["x"] }`, false},
		{"map delete", `func reset() { vt := NewVectorTable(); delete(vt.classPost, 0) }`, true},
		{"map delete in a writer", `func (vt *VectorTable) ensurePostings() { delete(vt.classPost, 0) }`, false},
		{"read before capture", `func plan(pc *PointCloud) (n int, e uint64) { n = pc.Len(); e = pc.Epoch(); return }`, true},
		{"capture before read", `func plan(pc *PointCloud) (n int, e uint64) { e = pc.Epoch(); n = pc.Len(); return }`, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "fixture.go", "package engine\n"+c.src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			writes, _ := tables.writes(fset, f)
			reads, _ := readsBeforeCapture(fset, f)
			if got := append(writes, reads...); (len(got) > 0) != c.bad {
				t.Errorf("reports %q, want a report: %v", got, c.bad)
			}
		})
	}
}

// parseEngine parses the non-test files of engine.
func parseEngine(t *testing.T) (*token.FileSet, []*ast.File) {
	t.Helper()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) < 10 {
		t.Fatalf("parsed %d files; the scan reads the wrong directory", len(files))
	}
	return fset, files
}

// epochTables describes the epoch-owned tables of a package.
type epochTables struct {
	fields map[string]map[string]bool // protected field names by table type
	ctors  map[string]string          // table type returned first, by package function
}

// readEpochTables finds the structs with an epoch field, their slice- and
// map-typed fields, and the package functions whose first result is one.
func readEpochTables(files []*ast.File) epochTables {
	tables := epochTables{fields: map[string]map[string]bool{}, ctors: map[string]string{}}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return false
			}
			owned, fields := false, map[string]bool{}
			for _, fld := range st.Fields.List {
				_, isMap := fld.Type.(*ast.MapType)
				arr, isSlice := fld.Type.(*ast.ArrayType)
				for _, id := range fld.Names {
					owned = owned || id.Name == "epoch"
					if isMap || isSlice && arr.Len == nil {
						fields[id.Name] = true
					}
				}
			}
			if owned {
				tables.fields[ts.Name.Name] = fields
			}
			return false
		})
	}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Type.Results != nil {
				if table := tables.typeOf(fd.Type.Results.List[0].Type); table != "" {
					tables.ctors[fd.Name.Name] = table
				}
			}
		}
	}
	return tables
}

// typeOf returns the table a type expression T or *T names, or "".
func (tables epochTables) typeOf(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok && tables.fields[id.Name] != nil {
		return id.Name
	}
	return ""
}

// valueOf returns the table a value expression holds or points to when it
// is a composite literal or a call of a function in ctors, or "".
func (tables epochTables) valueOf(e ast.Expr) string {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return tables.typeOf(e.Type)
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok {
			return tables.ctors[id.Name]
		}
	}
	return ""
}

// writes returns, for each function of f, its writes to protected fields:
// as report lines outside epochWriters, and as the listed writers that
// wrote.
func (tables epochTables) writes(fset *token.FileSet, f *ast.File) (bad, writers []string) {
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		name := funcName(fd)
		vars := map[string]string{} // table type by variable name
		declare := func(fl *ast.FieldList) {
			for _, fld := range fl.List {
				if table := tables.typeOf(fld.Type); table != "" {
					for _, id := range fld.Names {
						vars[id.Name] = table
					}
				}
			}
		}
		bind := func(id *ast.Ident, table string) {
			if table != "" {
				vars[id.Name] = table
			} else {
				delete(vars, id.Name)
			}
		}
		write := func(e ast.Expr) {
			for {
				switch x := ast.Unparen(e).(type) {
				case *ast.IndexExpr:
					e = x.X
					continue
				case *ast.SliceExpr:
					e = x.X
					continue
				case *ast.SelectorExpr:
					id, ok := ast.Unparen(x.X).(*ast.Ident)
					if !ok || !tables.fields[vars[id.Name]][x.Sel.Name] {
						return
					}
					if slices.Contains(epochWriters, name) {
						writers = append(writers, name)
					} else {
						bad = append(bad, fmt.Sprintf("%s: %s writes %s.%s", fset.Position(x.Pos()), name, id.Name, x.Sel.Name))
					}
				}
				return
			}
		}
		if fd.Recv != nil {
			declare(fd.Recv)
		}
		declare(fd.Type.Params)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				declare(n.Type.Params)
			case *ast.ValueSpec:
				for i, id := range n.Names {
					table := tables.typeOf(n.Type)
					if table == "" && i < len(n.Values) {
						table = tables.valueOf(n.Values[i])
					}
					bind(id, table)
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && n.Tok == token.DEFINE {
						table := ""
						if len(n.Rhs) == len(n.Lhs) || i == 0 {
							table = tables.valueOf(n.Rhs[min(i, len(n.Rhs)-1)])
						}
						bind(id, table)
					}
					write(lhs)
				}
			case *ast.IncDecStmt:
				write(n.X)
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) > 0 && (id.Name == "delete" || id.Name == "copy" || id.Name == "clear") {
					write(n.Args[0])
				}
			}
			return true
		})
	}
	return bad, writers
}

// funcName names fd as Type.Method, or by its plain name when it is a
// function or a method of a generic type.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// readsBeforeCapture returns, for each function of f, the method calls
// X.M(...) placed before the first assignment whose right side calls
// X.Epoch(), as report lines, and that function's captures as "name X".
// Function literals are not entered.
func readsBeforeCapture(fset *token.FileSet, f *ast.File) (bad, captures []string) {
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		first := map[string]token.Pos{}
		inspectOutsideLits(fd.Body, func(n ast.Node) {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return
			}
			for _, rhs := range as.Rhs {
				inspectOutsideLits(rhs, func(n ast.Node) {
					if x, m := methodCall(n); m == "Epoch" && x != "" {
						if _, seen := first[x]; !seen {
							first[x] = as.Pos()
							captures = append(captures, fd.Name.Name+" "+x)
						}
					}
				})
			}
		})
		inspectOutsideLits(fd.Body, func(n ast.Node) {
			x, m := methodCall(n)
			if at, ok := first[x]; ok && m != "Epoch" && n.Pos() < at {
				bad = append(bad, fmt.Sprintf("%s: %s calls %s.%s before capturing %s.Epoch()", fset.Position(n.Pos()), fd.Name.Name, x, m, x))
			}
		})
	}
	return bad, captures
}

// inspectOutsideLits calls fn on every node under root outside function
// literals.
func inspectOutsideLits(root ast.Node, fn func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok || n == nil {
			return false
		}
		fn(n)
		return true
	})
}

// methodCall returns the receiver path and method of a call X.M(...), or
// "" for X when n is no such call or X is not a path of names.
func methodCall(n ast.Node) (x, m string) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	return exprPath(sel.X), sel.Sel.Name
}

// exprPath flattens names and field selectors into a dotted path ("b.pc"),
// looking through parentheses and slicing, or returns "".
func exprPath(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := exprPath(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	case *ast.SliceExpr:
		return exprPath(e.X)
	case *ast.ParenExpr:
		return exprPath(e.X)
	}
	return ""
}
