package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAllAnalyzers pins the suite's one list, All(): every analyzer is
// complete, named once and has its golden fixture under testdata/src/<name>,
// and every fixture directory but the suppression one names an analyzer.
func TestAllAnalyzers(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not round-trip", a.Name)
		}
		if fi, err := os.Stat(filepath.Join("testdata", "src", a.Name)); err != nil || !fi.IsDir() {
			t.Errorf("analyzer %q has no fixture directory testdata/src/%s", a.Name, a.Name)
		}
	}
	if ByName("nosuch") != nil {
		t.Error("ByName(nosuch) = non-nil")
	}
	dirs, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d.IsDir() && d.Name() != suppressFixture && ByName(d.Name()) == nil {
			t.Errorf("fixture directory testdata/src/%s names no analyzer", d.Name())
		}
	}
}

// TestParseIgnores pins directive parsing: standalone directives target the
// next line, trailing directives their own line, and directives without a
// reason are malformed (reported, suppressing nothing).
func TestParseIgnores(t *testing.T) {
	src := `package p

//lint:ignore epochguard standalone directives target the next line
var a int

var b int //lint:ignore releaselist trailing directives target their own line

//lint:ignore epochguard
var c int
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var malformed []string
	dirs := parseIgnores(fset, f, func(pos token.Pos, msg string) {
		malformed = append(malformed, msg)
	})
	if len(dirs) != 2 {
		t.Fatalf("parseIgnores: %d well-formed directives, want 2", len(dirs))
	}
	if dirs[0].analyzer != "epochguard" || dirs[0].line != 4 {
		t.Errorf("standalone directive: analyzer=%q line=%d, want epochguard line 4", dirs[0].analyzer, dirs[0].line)
	}
	if dirs[1].analyzer != "releaselist" || dirs[1].line != 6 {
		t.Errorf("trailing directive: analyzer=%q line=%d, want releaselist line 6", dirs[1].analyzer, dirs[1].line)
	}
	if len(malformed) != 1 || !strings.Contains(malformed[0], "malformed") {
		t.Errorf("malformed directives = %v, want one malformed report", malformed)
	}
}

// TestApplyIgnoresExactlyOne pins the scalpel semantics at the unit level:
// with two identical diagnostics on a line and one directive, exactly one
// survives.
func TestApplyIgnoresExactlyOne(t *testing.T) {
	src := `package p

//lint:ignore epochguard reason
var a int
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pos := fset.Position(f.Decls[0].Pos()) // line 4
	diags := []Diagnostic{
		{Analyzer: "epochguard", Pos: pos, Message: "first"},
		{Analyzer: "epochguard", Pos: pos, Message: "second"},
		{Analyzer: "releaselist", Pos: pos, Message: "other analyzer"},
	}
	kept := applyIgnores(fset, []*ast.File{f}, diags)
	if len(kept) != 2 {
		t.Fatalf("applyIgnores kept %d diagnostics, want 2 (one suppressed): %v", len(kept), kept)
	}
	for _, d := range kept {
		if d.Message == "first" {
			t.Error("directive suppressed the wrong diagnostic order; 'first' should be consumed")
		}
	}
}
