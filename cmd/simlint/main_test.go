package main

import (
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestListRegistersAllAnalyzers pins the -list contract: every analyzer
// in the registry prints exactly one line with its name and a nonempty
// one-line doc, and nothing else. A rule that lands without registering
// (or without documentation) is invisible to `simlint -rules` users and
// to the DESIGN.md §7 inventory; this test makes that a build failure.
func TestListRegistersAllAnalyzers(t *testing.T) {
	want := analysis.Analyzers()
	const expected = 2
	if len(want) != expected {
		t.Fatalf("registry has %d analyzers, want %d; update this test alongside the registry", len(want), expected)
	}

	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-list) = %d, want 0; stderr: %s", code, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Errorf("-list wrote to stderr: %q", stderr.String())
	}

	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(want), stdout.String())
	}
	for i, a := range want {
		name, doc, found := strings.Cut(lines[i], " ")
		if !found || name != a.Name {
			t.Errorf("line %d = %q, want it to start with %q", i, lines[i], a.Name)
			continue
		}
		if a.Doc == "" || strings.TrimSpace(doc) == "" {
			t.Errorf("analyzer %s has no one-line doc", a.Name)
		}
		if strings.ContainsRune(a.Doc, '\n') {
			t.Errorf("analyzer %s doc spans multiple lines; -list output must stay one line per rule", a.Name)
		}
	}
}

// TestRunFlagErrors pins the usage exits: a bad flag, an unknown rule
// (a retired one included), and the retired baseline, audit, -json, -v
// and -par flags all return 2 without running any analysis.
func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		{"-rules", "nosuchrule"},
		{"-rules", "norand"},
		{"-rules", "mapiter"},
		{"-audit"},
		{"-baseline", "x.json"},
		{"-update-baseline"},
		{"-json"},
		{"-v"},
		{"-par", "4"},
	} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}
