// Package analysis is a small stdlib-only static-analysis framework
// (go/parser + go/types + go/importer; no x/tools dependency) plus the
// simlint analyzers that enforce this repository's determinism and
// concurrency invariants.
//
// The invariants exist because the engine promises byte-identical top-k
// results for a given (graph, Params) across worker counts and runs.
// That promise survives only if map iteration order never leaks into
// results, scratch buffers always go back to their pool, and goroutines
// are spawned only by the approved bounded worker pools. Each rule is
// encoded as an Analyzer; cmd/simlint is the driver and `make check` runs
// it over ./... as part of the gate.
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
	"time"
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

// A Pass carries one analyzer's view of one loaded package. Mod is the
// module-wide interprocedural layer (call graph and summaries) shared by
// every package of the same load; analyzers that only need the package
// can ignore it.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Mod      *Module

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos. Suppression directives are applied
// later, centrally, so analyzers never need to know about them.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, newDiagnostic(p.Analyzer.Name, p.Pkg.Fset.Position(pos), fmt.Sprintf(format, args...)))
}

// A Diagnostic is one finding, positioned in the original source.
type Diagnostic struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
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
	// Mod is the interprocedural layer shared across packages of one
	// load. When nil, RunPackage builds a single-package module on the
	// fly — sufficient for the intraprocedural analyzers, but
	// cross-package call chains are invisible to that view, so drivers
	// that lint whole modules should build one Module over every loaded
	// package and share it.
	Mod *Module
	// Observe, when set, is called once per analyzer with its wall-clock
	// Run duration.
	Observe func(rule string, elapsed time.Duration)
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
// exists and silently excuses the next real one on that line.
func RunPackage(pkg *Package, analyzers []*Analyzer, opts RunOptions) ([]Diagnostic, error) {
	mod := opts.Mod
	if mod == nil {
		mod = BuildModule([]*Package{pkg})
	}
	var diags []Diagnostic
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
		if !inScope(a.Name, pkg) {
			continue
		}
		pass := &Pass{Analyzer: a, Pkg: pkg, Mod: mod, diags: &diags}
		start := time.Now()
		err := a.Run(pass)
		if opts.Observe != nil {
			opts.Observe(a.Name, time.Since(start))
		}
		if err != nil {
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
