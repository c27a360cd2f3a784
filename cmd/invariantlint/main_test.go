package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"gisnav/internal/analysis"
)

// TestListAnalyzers: -list prints the whole suite and exits 0.
func TestListAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exit = %d, stderr = %s", code, errb.String())
	}
	for _, a := range analysis.All() {
		if !strings.Contains(out.String(), a.Name) {
			t.Errorf("-list output missing analyzer %q", a.Name)
		}
	}
}

// TestRepoClean: the suite over the whole module exits 0 with no output —
// the state the CI gate enforces.
func TestRepoClean(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"../../..."}, &out, &errb); code != 0 {
		t.Fatalf("repo head not clean: exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run produced output:\n%s", out.String())
	}
}

// TestViolationPackages: the golden violation package of every analyzer in
// the suite makes invariantlint exit non-zero, and -json emits parseable
// diagnostics for it.
func TestViolationPackages(t *testing.T) {
	for _, a := range analysis.All() {
		name := a.Name
		t.Run(name, func(t *testing.T) {
			dir := "../../internal/analysis/testdata/src/" + name
			var out, errb bytes.Buffer
			code := run([]string{"-json", "-analyzers", name, dir}, &out, &errb)
			if code != 1 {
				t.Fatalf("exit = %d, want 1\nstderr: %s", code, errb.String())
			}
			var diags []analysis.Diagnostic
			if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
				t.Fatalf("-json output unparseable: %v\n%s", err, out.String())
			}
			if len(diags) == 0 {
				t.Fatal("-json output has no diagnostics")
			}
			for _, d := range diags {
				if d.Analyzer != name {
					t.Errorf("diagnostic from %q, want %q: %s", d.Analyzer, name, d.Message)
				}
			}
		})
	}
}

// TestAnalyzerSubset: -analyzers runs the named analyzers only, so a
// package with nothing for them to report is clean under them.
func TestAnalyzerSubset(t *testing.T) {
	var out, errb bytes.Buffer
	dir := "../../internal/cancel"
	if code := run([]string{"-analyzers", "epochguard", dir}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
}

// TestUnknownAnalyzer: a bad -analyzers value is a usage error (exit 2).
func TestUnknownAnalyzer(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-analyzers", "nosuch"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown analyzer") {
		t.Errorf("stderr = %q, want unknown-analyzer message", errb.String())
	}
}
