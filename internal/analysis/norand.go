package analysis

import (
	"go/ast"
	"path/filepath"
	"strconv"
	"strings"
)

// NoRand forbids nondeterministic inputs in the deterministic packages:
// importing math/rand (all randomness must flow through internal/rng so
// streams are seedable and splittable) and calling time.Now / time.Since
// (wall-clock time must never influence algorithm behaviour). Files whose
// only use of the clock is reporting build statistics are allowlisted;
// presentation-layer packages (cmd, examples, server, bench) are out of
// scope entirely.
var NoRand = &Analyzer{
	Name: "norand",
	Doc: "no math/rand imports and no time.Now/time.Since in deterministic packages " +
		"outside the timing-stats allowlist",
	Run: runNoRand,
}

// norandFileAllow lists timing-only files inside the scope: engine.go
// records preprocess wall-clock in BuildStats, which is reported, never
// consumed.
var norandFileAllow = []string{
	"internal/core/engine.go",
}

func runNoRand(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		file := pass.Pkg.Fset.Position(f.Pos()).Filename
		if norandFileAllowed(file) {
			continue
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"import of %s: use repro/internal/rng so streams stay seedable and deterministic", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if (sel.Sel.Name == "Now" || sel.Sel.Name == "Since") &&
				pkgIdent(pass.Pkg.Info, sel.X, "time") {
				pass.Reportf(call.Pos(),
					"time.%s in a deterministic package: wall-clock must not influence results", sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}

func norandFileAllowed(file string) bool {
	for _, allow := range norandFileAllow {
		if strings.HasSuffix(filepath.ToSlash(file), allow) {
			return true
		}
	}
	return false
}
