// Command simlint runs the repository's determinism and concurrency
// lint suite (internal/analysis) over the module.
//
// Usage:
//
//	simlint [-json] [-rules mapiter,gospawn,...] [-list] [-v] [-par N]
//	        [-nosuppress] [-time-budget d] [packages]
//
// Packages are directories or "dir/..." patterns; the default is "./...".
// The tool is its own driver (the stdlib has no vet -vettool plumbing),
// type-checks from source with go/parser + go/types, and needs no
// dependencies beyond the standard library. Loading is sequential (the
// loader shares a FileSet and package cache); then a module-wide
// interprocedural layer (call graph + effect summaries) is built once and
// shared, and the analyzers run over packages in parallel, bounded by
// -par; output order is deterministic regardless of scheduling.
//
// Suppress individual findings in source with //lint:ignore <rule>
// <reason> on or directly above the flagged line. Every run also checks
// the directives themselves: a malformed one, and a stale one — its rule
// ran and it suppresses nothing — are diagnostics under the rule "lint".
// -nosuppress disables directive processing instead and prints every raw
// diagnostic: the view to review the suppression inventory with.
//
// -time-budget D fails the run (exit 1) if loading plus analysis exceeds
// the duration D; CI uses it to keep the lint pass from silently growing.
//
// Exit status:
//
//	0  clean: no diagnostics
//	1  diagnostics found, or budget blown
//	2  usage, load, or type-checking error
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected (arguments and both output
// streams), so tests can drive the driver in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	rules := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	list := fs.Bool("list", false, "list available rules and exit")
	verbose := fs.Bool("v", false, "report loader warnings and per-analyzer wall time")
	par := fs.Int("par", runtime.NumCPU(), "max packages analyzed concurrently")
	noSuppress := fs.Bool("nosuppress", false, "ignore //lint:ignore and //lint:file-ignore directives and print every raw diagnostic")
	timeBudget := fs.Duration("time-budget", 0, "fail if loading+analysis exceeds this duration (0 = no budget)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	start := time.Now()
	analyzers := analysis.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *rules != "" {
		var bad string
		analyzers, bad = analysis.ByName(*rules)
		if bad != "" {
			fmt.Fprintf(stderr, "simlint: unknown rule %q (try -list)\n", bad)
			return 2
		}
	}
	if *par < 1 {
		*par = 1
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	var timing *timingSink
	if *verbose {
		timing = &timingSink{total: map[string]time.Duration{}}
	}
	var diags []analysis.Diagnostic
	for _, pat := range patterns {
		ds, err := lintPattern(pat, analyzers, *par, *verbose, *noSuppress, timing, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "simlint: %v\n", err)
			return 2
		}
		diags = append(diags, ds...)
	}
	if timing != nil {
		timing.report(stderr)
	}
	elapsed := time.Since(start)
	if *timeBudget > 0 && elapsed > *timeBudget {
		fmt.Fprintf(stderr, "simlint: analysis took %v, over the %v budget\n",
			elapsed.Round(time.Millisecond), *timeBudget)
		return 1
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "simlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// lintPattern loads one pattern's packages (sequentially — the loader is
// not concurrency-safe), builds the shared interprocedural module over
// everything the loader saw, and analyzes packages in parallel. Results
// are collected by package index, so output order matches load order no
// matter how the goroutines are scheduled.
func lintPattern(pat string, analyzers []*analysis.Analyzer, par int, verbose, noSuppress bool, timing *timingSink, stderr io.Writer) ([]analysis.Diagnostic, error) {
	root := strings.TrimSuffix(pat, "...")
	recursive := root != pat
	root = filepath.Clean(strings.TrimSuffix(root, "/"))
	if root == "" {
		root = "."
	}

	loader, err := analysis.NewLoader(root)
	if err != nil {
		return nil, err
	}
	var pkgs []*analysis.Package
	if recursive {
		pkgs, err = loader.LoadAll(root)
	} else {
		var pkg *analysis.Package
		pkg, err = loader.LoadDir(root)
		pkgs = []*analysis.Package{pkg}
	}
	if err != nil {
		return nil, err
	}

	if verbose {
		for _, pkg := range pkgs {
			for _, te := range pkg.TypeErrors {
				fmt.Fprintf(stderr, "simlint: warning: %s: %v\n", pkg.ImportPath, te)
			}
		}
	}

	// One interprocedural layer over every package this loader touched
	// (including module-local imports pulled in transitively), shared
	// read-only by the per-package analyzer goroutines.
	mod := analysis.BuildModule(loader.Packages())

	opts := analysis.RunOptions{Mod: mod, NoSuppress: noSuppress}
	if timing != nil {
		opts.Observe = timing.observe
	}
	results := make([][]analysis.Diagnostic, len(pkgs))
	errs := make([]error, len(pkgs))
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *analysis.Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = analysis.RunPackage(pkg, analyzers, opts)
		}(i, pkg)
	}
	wg.Wait()

	var diags []analysis.Diagnostic
	for i := range pkgs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		diags = append(diags, results[i]...)
	}
	if verbose {
		for _, stub := range loader.Stubs() {
			fmt.Fprintf(stderr, "simlint: warning: import %q stubbed (not resolvable)\n", stub)
		}
	}
	return diags, nil
}

// timingSink accumulates per-analyzer wall time across packages and
// goroutines (-v only).
type timingSink struct {
	mu    sync.Mutex
	total map[string]time.Duration
}

func (t *timingSink) observe(rule string, elapsed time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total[rule] += elapsed
}

func (t *timingSink) report(out io.Writer) {
	names := make([]string, 0, len(t.total))
	for name := range t.total {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(out, "simlint: timing: %-12s %v\n", name, t.total[name].Round(time.Microsecond))
	}
}
