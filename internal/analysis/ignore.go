package analysis

import (
	"fmt"
	"go/token"
	"strings"
)

// ignorePrefix and fileIgnorePrefix are the in-source suppression
// directives. The rule list is comma-separated and the reason is
// mandatory — an unexplained suppression is exactly the kind of silent
// convention this package exists to eliminate.
const (
	ignorePrefix     = "//lint:ignore"
	fileIgnorePrefix = "//lint:file-ignore"
)

// ignoreDirective is one parsed suppression comment.
type ignoreDirective struct {
	FileWide bool
	Rules    []string
	Reason   string
	// Malformed marks directive-shaped text that is unusable (missing
	// rule or reason, or an empty rule name). It is reported under the
	// pseudo-rule "lint" and suppresses nothing.
	Malformed bool
}

// parseIgnoreDirective classifies one comment line. Non-directives
// (including close-but-not-quite text like "//lint:ignoreme", where the
// prefix is not followed by whitespace) return ok == false. Directives
// return ok == true, with Malformed set when the text cannot be used:
// fewer than two fields after the prefix, or an empty rule name in the
// comma-separated list ("gospawn,," suppresses nothing cleanly).
func parseIgnoreDirective(text string) (d ignoreDirective, ok bool) {
	text = strings.TrimSpace(text)
	var rest string
	switch {
	case cutDirectivePrefix(text, fileIgnorePrefix, &rest):
		d.FileWide = true
	case cutDirectivePrefix(text, ignorePrefix, &rest):
	default:
		return ignoreDirective{}, false
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		d.Malformed = true
		return d, true
	}
	rules := strings.Split(fields[0], ",")
	for _, r := range rules {
		if r == "" {
			d.Malformed = true
			return d, true
		}
	}
	d.Rules = rules
	d.Reason = strings.Join(fields[1:], " ")
	return d, true
}

// cutDirectivePrefix strips the directive prefix when it is followed by
// whitespace or the end of the comment; "//lint:ignoreme" is an ordinary
// comment, not a (malformed) directive.
func cutDirectivePrefix(text, prefix string, rest *string) bool {
	r, found := strings.CutPrefix(text, prefix)
	if !found {
		return false
	}
	if r != "" && r[0] != ' ' && r[0] != '\t' {
		return false
	}
	*rest = r
	return true
}

// placedDirective is one well-formed directive with its source position.
type placedDirective struct {
	ignoreDirective
	pos token.Position
}

// covers reports whether the directive suppresses d under one of its
// rules: same rule in the same file, and — unless file-wide — d on the
// directive's own line or the line directly below it (the usual "comment
// above the statement" form).
func (pd placedDirective) covers(rule string, d Diagnostic) bool {
	if d.Rule != rule || d.File != pd.pos.Filename {
		return false
	}
	return pd.FileWide || d.Line == pd.pos.Line || d.Line == pd.pos.Line+1
}

// ignoreIndex holds every well-formed directive of one package, plus
// diagnostics for the malformed ones.
type ignoreIndex struct {
	directives []placedDirective
	malformed  []Diagnostic
}

func buildIgnoreIndex(pkg *Package) *ignoreIndex {
	idx := &ignoreIndex{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseIgnoreDirective(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if d.Malformed {
					idx.malformed = append(idx.malformed, lintDiagnostic(pos,
						"malformed ignore directive: need \"//lint:ignore <rule> <reason>\""))
				} else {
					idx.directives = append(idx.directives, placedDirective{d, pos})
				}
			}
		}
	}
	return idx
}

// lintDiagnostic is a finding about a directive itself, under the
// pseudo-rule "lint".
func lintDiagnostic(pos token.Position, msg string) Diagnostic {
	return newDiagnostic("lint", pos, msg)
}

// filter judges the raw findings and the directives against each other:
// kept are the findings no directive covers, stale one diagnostic per
// directive rule that covers none, positioned at the directive.
//
// Only directive rules present in ran (the analyzers of this run) are
// judged: under a -rules subset the other rules produced no raw findings
// by construction, so their directives would all read as rot.
func (idx *ignoreIndex) filter(raw []Diagnostic, ran map[string]bool) (kept, stale []Diagnostic) {
	suppressed := make([]bool, len(raw))
	for _, pd := range idx.directives {
		for _, rule := range pd.Rules {
			live := false
			for i, d := range raw {
				if pd.covers(rule, d) {
					suppressed[i], live = true, true
				}
			}
			if live || !ran[rule] {
				continue
			}
			form, where := ignorePrefix, "on this or the next line"
			if pd.FileWide {
				form, where = fileIgnorePrefix, "in this file"
			}
			stale = append(stale, lintDiagnostic(pd.pos,
				fmt.Sprintf("stale %s: no raw %s finding %s; delete the directive", form, rule, where)))
		}
	}
	for i, d := range raw {
		if !suppressed[i] {
			kept = append(kept, d)
		}
	}
	return kept, stale
}
