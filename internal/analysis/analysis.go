// Package analysis is the repo's custom static-analysis suite: a minimal
// AST/type-driven analyzer framework (stdlib only — go/parser, go/types and
// the source importer; the module has no dependencies and must stay
// offline-buildable) plus the analyzer that mechanically enforces the one
// ROADMAP architecture invariant the type system cannot:
//
//	epochguard   — table-owned backing slices mutate only inside the
//	               epoch-bumping mutation paths, and plan constructors
//	               capture epochs before reading table state.
//
// Five conventions need no analyzer because the code makes them impossible
// to break: every executor entry point takes a context (there is no
// ctx-less variant to call), every drop-and-rebuild cache is a bounded.Map,
// which carries its bound and its counters, no compiled kernel can hold
// a predicate constant (engine loop structs and SQL expression nodes have
// no field that could; reflect tests in engine and sql walk them), every
// block loop polls cancellation once per block because it ranges over
// cancel.Token.Blocks (a go/ast test in internal/cancel rejects a poll
// inside a per-element loop), and a pooled buffer leaves the engine's
// pools only through a release list (a go/ast test in internal/engine
// rejects a pool reference or a bare RecycleRows anywhere else).
//
// The analyzers are example-driven, not sound: each one encodes the shape
// the invariant takes in THIS codebase (the golden tests under testdata pin
// those shapes), so a refactor that changes the shape should extend the
// analyzer rather than route around it. Deliberate, justified deviations are
// suppressed in place with
//
//	//lint:ignore <analyzer> <reason>
//
// on the line before (or the trailing comment of) the flagged line; a
// directive silences exactly one diagnostic and must carry a reason.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant check: a name (used in diagnostics and
// suppression directives), a one-line contract, and the Run hook invoked
// once per loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:ignore
	// directives. Lower-case, no spaces.
	Name string
	// Doc is the one-line statement of the enforced invariant.
	Doc string
	// Run inspects one package and reports findings through pass.Report.
	Run func(pass *Pass)
}

// Pass is the per-(analyzer, package) invocation state handed to
// Analyzer.Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	file     string
	line     int // the line the directive applies to
	analyzer string
	used     bool
}

// parseIgnores collects the //lint:ignore directives of a file. A directive
// written on its own line applies to the next line; a trailing directive
// applies to its own line. Directives without a reason are reported as
// malformed through report (they do not suppress anything — a suppression
// must say why).
func parseIgnores(fset *token.FileSet, f *ast.File, report func(pos token.Pos, msg string)) []*ignoreDirective {
	var out []*ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//lint:ignore ")
			if !ok {
				continue
			}
			fields := strings.Fields(text)
			pos := fset.Position(c.Pos())
			if len(fields) < 2 {
				if report != nil {
					report(c.Pos(), "malformed //lint:ignore: need \"//lint:ignore <analyzer> <reason>\"")
				}
				continue
			}
			line := pos.Line
			if pos.Column == 1 || standaloneComment(fset, f, c) {
				line++ // a directive on its own line suppresses the next line
			}
			out = append(out, &ignoreDirective{
				file:     pos.Filename,
				line:     line,
				analyzer: fields[0],
			})
		}
	}
	return out
}

// standaloneComment reports whether comment c sits alone on its line (no
// code before it), in which case the directive targets the following line.
func standaloneComment(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	cpos := fset.Position(c.Pos())
	alone := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !alone {
			return false
		}
		if n.Pos() <= c.Pos() && fset.Position(n.Pos()).Line == cpos.Line {
			switch n.(type) {
			case *ast.File, *ast.Comment, *ast.CommentGroup:
			default:
				alone = false
			}
		}
		return alone
	})
	return alone
}

// applyIgnores filters diags through the //lint:ignore directives of files,
// removing for each directive AT MOST ONE matching diagnostic (same file,
// same line, same analyzer) — a directive is a scalpel, not a blanket.
func applyIgnores(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	var directives []*ignoreDirective
	for _, f := range files {
		directives = append(directives, parseIgnores(fset, f, nil)...)
	}
	if len(directives) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, dir := range directives {
			if !dir.used && dir.analyzer == d.Analyzer &&
				dir.file == d.Pos.Filename && dir.line == d.Pos.Line {
				dir.used = true
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}

// RunAnalyzers applies every analyzer to pkg and returns the surviving
// (non-suppressed) diagnostics in file/line order.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var all []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		a.Run(pass)
		all = append(all, pass.diags...)
	}
	// A malformed directive suppresses nothing, so surface it — otherwise it
	// reads as a suppression while the diagnostic it meant to silence still
	// fires.
	for _, f := range pkg.Files {
		parseIgnores(pkg.Fset, f, func(pos token.Pos, msg string) {
			all = append(all, Diagnostic{
				Analyzer: "directive",
				Pos:      pkg.Fset.Position(pos),
				Message:  msg,
			})
		})
	}
	all = applyIgnores(pkg.Fset, pkg.Files, all)
	sort.Slice(all, func(i, j int) bool {
		if all[i].Pos.Filename != all[j].Pos.Filename {
			return all[i].Pos.Filename < all[j].Pos.Filename
		}
		if all[i].Pos.Line != all[j].Pos.Line {
			return all[i].Pos.Line < all[j].Pos.Line
		}
		return all[i].Pos.Column < all[j].Pos.Column
	})
	return all
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		EpochGuardAnalyzer,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
