package analysis

import (
	"go/token"
	"strings"
	"testing"
)

// TestFileIgnore checks that //lint:file-ignore suppresses a rule across
// the whole file.
func TestFileIgnore(t *testing.T) {
	pkg := loadFixture(t, "fileignore")
	diags, err := RunPackage(pkg, []*Analyzer{GoSpawn}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("file-ignore did not suppress: %v", diags)
	}
}

// TestMalformedDirective checks that a directive without a reason is
// itself reported under the "lint" pseudo-rule.
func TestMalformedDirective(t *testing.T) {
	pkg := loadFixture(t, "malformed")
	diags, err := RunPackage(pkg, []*Analyzer{GoSpawn}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly the malformed-directive one: %v", len(diags), diags)
	}
	if diags[0].Rule != "lint" || !strings.Contains(diags[0].Message, "malformed") {
		t.Fatalf("unexpected diagnostic: %v", diags[0])
	}
}

// TestAuditStaleDirectives checks directive hygiene, part of every run:
// a directive whose finding still fires is quiet (and suppresses it),
// while a line directive with nothing to suppress and a file-wide
// directive for a rule that never fires are both reported as stale, and
// on a run of every rule a directive naming no rule is reported as
// unknown — each at the directive's own position.
func TestAuditStaleDirectives(t *testing.T) {
	pkg := loadFixture(t, "staleignore")
	diags, err := RunPackage(pkg, Analyzers(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 2 stale directives and 1 unknown rule: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Rule != "lint" {
			t.Fatalf("unexpected diagnostic: %v", d)
		}
	}
	for i, want := range [][]string{
		{"stale", "unsafeconfine", "file-ignore"},
		{"stale", "gospawn", "next line"},
		{"unknown rule", "mapitr"},
	} {
		for _, w := range want {
			if !strings.Contains(diags[i].Message, w) {
				t.Errorf("diagnostic %d should mention %q: %v", i, w, diags[i])
			}
		}
	}
}

// TestAuditScopedToEnabledRules checks that a run with a rule subset only
// judges directives for rules that ran: the stale file-wide unsafeconfine
// directive must not be reported when unsafeconfine was not among the
// analyzers, nor the unknown rule (a subset cannot tell an unknown rule
// from one left out), while the genuinely stale gospawn directive still
// is.
func TestAuditScopedToEnabledRules(t *testing.T) {
	pkg := loadFixture(t, "staleignore")
	diags, err := RunPackage(pkg, []*Analyzer{GoSpawn}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want only the stale gospawn directive: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "gospawn") {
		t.Errorf("diagnostic should be the stale line gospawn directive: %v", diags[0])
	}
}

// TestAuditQuietWhenLive checks that a run returns nothing for a file
// whose only directive still suppresses a live finding.
func TestAuditQuietWhenLive(t *testing.T) {
	pkg := loadFixture(t, "fileignore")
	diags, err := RunPackage(pkg, []*Analyzer{GoSpawn}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("live suppression reported as stale: %v", diags)
	}
}

// TestIgnoreIndexPlacement pins the directive placement contract: same
// line and line-above suppress, two lines above does not.
func TestIgnoreIndexPlacement(t *testing.T) {
	idx := &ignoreIndex{directives: []placedDirective{{
		ignoreDirective{Rules: []string{"gospawn"}},
		token.Position{Filename: "f.go", Line: 10},
	}}}
	suppressed := func(line int, rule string) bool {
		kept, _ := idx.filter([]Diagnostic{{Rule: rule, File: "f.go", Line: line}}, nil)
		return len(kept) == 0
	}
	if !suppressed(10, "gospawn") {
		t.Error("same-line directive must suppress")
	}
	if !suppressed(11, "gospawn") {
		t.Error("line-above directive must suppress")
	}
	if suppressed(12, "gospawn") {
		t.Error("directive two lines up must not suppress")
	}
	if suppressed(10, "unsafeconfine") {
		t.Error("other rules must not be suppressed")
	}
}
