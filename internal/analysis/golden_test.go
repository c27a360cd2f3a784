package analysis

import (
	"path/filepath"
	"regexp"
	"testing"
)

// wantRe extracts the backtick-quoted expectation patterns of a
// "// want `re` `re`" comment.
var wantRe = regexp.MustCompile("`([^`]+)`")

// expectation is one parsed // want comment pattern.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// collectWants parses the // want comments of a loaded package. Each
// pattern expects exactly one diagnostic on the comment's line.
func collectWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Pos())
				const prefix = "// want "
				if len(c.Text) < len(prefix) || c.Text[:len(prefix)] != prefix {
					continue
				}
				matches := wantRe.FindAllStringSubmatch(c.Text[len(prefix):], -1)
				if len(matches) == 0 {
					t.Errorf("%s: want comment has no `pattern`", pos)
					continue
				}
				for _, m := range matches {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Errorf("%s: bad want pattern %q: %v", pos, m[1], err)
						continue
					}
					wants = append(wants, &expectation{
						file: pos.Filename,
						line: pos.Line,
						re:   re,
						raw:  m[1],
					})
				}
			}
		}
	}
	return wants
}

// runGolden loads testdata/src/<dir>, runs the given analyzers, and checks
// the diagnostics against the package's // want comments: every diagnostic
// must match an unused expectation on its line, and every expectation must
// be consumed.
func runGolden(t *testing.T, loader *Loader, dir string, analyzers []*Analyzer) {
	t.Helper()
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatalf("loading testdata/src/%s: %v", dir, err)
	}
	diags := RunAnalyzers(pkg, analyzers)
	wants := collectWants(t, pkg)
	if len(wants) == 0 {
		t.Fatalf("testdata/src/%s has no // want comments", dir)
	}
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want `%s`", w.file, w.line, w.raw)
		}
	}
}

// suppressFixture is the one fixture directory not named after an
// analyzer: it pins the //lint:ignore directive, under releaselist — each
// directive must silence exactly one of its diagnostics.
const suppressFixture = "suppress"

// TestGolden pins each analyzer of All() against its violation package
// testdata/src/<name>, and the suppression directive against the suppress
// package. Subtests run in parallel against one shared loader — the same
// concurrency shape invariantlint uses.
func TestGolden(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	type golden struct {
		dir       string
		analyzers []*Analyzer
	}
	var cases []golden
	for _, a := range All() {
		cases = append(cases, golden{a.Name, []*Analyzer{a}})
	}
	cases = append(cases, golden{suppressFixture, []*Analyzer{ReleaseListAnalyzer}})
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			t.Parallel()
			runGolden(t, loader, tc.dir, tc.analyzers)
		})
	}
}
