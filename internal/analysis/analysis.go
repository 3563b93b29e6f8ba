// Package analysis is a small stdlib-only static-analysis framework
// (go/parser and go/ast; no x/tools dependency) plus the simlint
// analyzers that enforce what no test of this repository pins.
//
// The engine promises byte-identical top-k results for a given (graph,
// Params) across worker counts, caches and shard topologies. The golden,
// identity, cancellation and race suites hold most of that promise; the
// two rules here hold what they cannot see: goroutines are spawned only
// by the approved bounded worker pools, and raw memory reinterpretation
// stays in the mmap loader files. Each rule is encoded as an Analyzer;
// cmd/simlint is the driver and `make check` runs it over ./... as part
// of the gate.
//
// Diagnostics can be suppressed with an in-source directive on the same
// line or the line directly above the flagged position:
//
//	//lint:ignore <rule> <reason>
//
// and a whole file can opt out of one rule with
//
//	//lint:file-ignore <rule> <reason>
//
// The reason is mandatory; a directive without one is itself reported.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// An Analyzer is one named invariant check.
type Analyzer struct {
	// Name is the rule name used in diagnostics and ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run inspects one package and reports findings through the Pass.
	Run func(*Pass) error
}

// A Pass carries one analyzer's view of one loaded package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos. Suppression directives are applied
// later, centrally, so analyzers never need to know about them.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, newDiagnostic(p.Analyzer.Name, p.Pkg.Fset.Position(pos), fmt.Sprintf(format, args...)))
}

// A Diagnostic is one finding, positioned in the original source.
type Diagnostic struct {
	Rule    string
	File    string
	Line    int
	Col     int
	Message string
}

func newDiagnostic(rule string, pos token.Position, msg string) Diagnostic {
	return Diagnostic{Rule: rule, File: pos.Filename, Line: pos.Line, Col: pos.Column, Message: msg}
}

// String renders the go-vet-style one-line form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Rule)
}

// RunOptions configures RunPackage.
type RunOptions struct {
	// NoSuppress disables //lint:ignore and //lint:file-ignore
	// processing: every raw diagnostic is returned and no directive is
	// judged. It is the view to eyeball the suppression inventory with.
	NoSuppress bool
}

// RunPackage applies the given analyzers to the package — each one only
// if the package is in its scope (ruleScope) — filters suppressed
// findings, and returns the surviving diagnostics sorted by position.
// Directive hygiene is part of every run, under the pseudo-rule "lint": a
// malformed //lint:ignore is reported, and so is a stale one — a
// directive whose rule ran and suppresses no finding. A suppression whose
// finding has been fixed is rot: it documents a violation that no longer
// exists and silently excuses the next real one on that line. On a run
// of every rule, a directive naming a rule that does not exist is
// reported too.
func RunPackage(pkg *Package, analyzers []*Analyzer, opts RunOptions) ([]Diagnostic, error) {
	var diags []Diagnostic
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
		if !inScope(a.Name, pkg) {
			continue
		}
		if err := a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &diags}); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.ImportPath, a.Name, err)
		}
	}
	idx := buildIgnoreIndex(pkg)
	kept := diags
	if !opts.NoSuppress {
		var stale []Diagnostic
		kept, stale = idx.filter(diags, ran)
		kept = append(kept, stale...)
	}
	kept = append(kept, idx.malformed...)
	sortDiagnostics(kept)
	return kept, nil
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
}
