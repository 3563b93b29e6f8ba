// Command simlint runs the repository's determinism and concurrency
// lint suite (internal/analysis) over the module.
//
// Usage:
//
//	simlint [-rules gospawn,...] [-list] [-nosuppress] [-time-budget d] [packages]
//
// Packages are directories or "dir/..." patterns; the default is "./...".
// The tool is its own driver (the stdlib has no vet -vettool plumbing),
// parses from source with go/parser, and needs no dependencies beyond the
// standard library. Packages are loaded and analyzed in one loop, in
// directory order, so output order is deterministic.
//
// Suppress individual findings in source with //lint:ignore <rule>
// <reason> on or directly above the flagged line. Every run also checks
// the directives themselves: a malformed one, a stale one — its rule
// ran and it suppresses nothing — and, on a run of every rule, one that
// names no rule simlint has are diagnostics under the rule "lint".
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
//	2  usage, load, or parse error
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
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
	rules := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	list := fs.Bool("list", false, "list available rules and exit")
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

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	opts := analysis.RunOptions{NoSuppress: *noSuppress}
	var diags []analysis.Diagnostic
	for _, pat := range patterns {
		pkgs, err := load(pat)
		if err != nil {
			fmt.Fprintf(stderr, "simlint: %v\n", err)
			return 2
		}
		for _, pkg := range pkgs {
			ds, err := analysis.RunPackage(pkg, analyzers, opts)
			if err != nil {
				fmt.Fprintf(stderr, "simlint: %v\n", err)
				return 2
			}
			diags = append(diags, ds...)
		}
	}
	elapsed := time.Since(start)
	if *timeBudget > 0 && elapsed > *timeBudget {
		fmt.Fprintf(stderr, "simlint: analysis took %v, over the %v budget\n",
			elapsed.Round(time.Millisecond), *timeBudget)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// load parses one pattern's packages: a directory, or every package
// under it for "dir/...", in directory order.
func load(pat string) ([]*analysis.Package, error) {
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
	if recursive {
		return loader.LoadAll(root)
	}
	pkg, err := loader.LoadDir(root)
	if err != nil {
		return nil, err
	}
	return []*analysis.Package{pkg}, nil
}
