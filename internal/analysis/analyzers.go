package analysis

import (
	"go/ast"
	"slices"
	"strings"
)

// Analyzers returns the full simlint rule set in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		GoSpawn,
		UnsafeConfine,
	}
}

// ByName resolves a comma-separated rule list; unknown names return nil
// and the offending name.
func ByName(list string) ([]*Analyzer, string) {
	all := Analyzers()
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		i := slices.IndexFunc(all, func(a *Analyzer) bool { return a.Name == name })
		if i < 0 {
			return nil, name
		}
		out = append(out, all[i])
	}
	return out, ""
}

// ruleScope is the one table of which packages a scoped rule runs on,
// as module-relative paths ("" is the root package). A rule without a
// row runs on every package; analyzer fixtures (anything under a
// testdata directory) are in every rule's scope, so rules can be
// exercised outside the real package layout.
var ruleScope = map[string][]string{
	// The packages whose concurrency shape is pinned: the engine and the
	// router's scatter-gather layer.
	"gospawn": {"internal/core", "internal/router"},
}

// inScope reports whether the rule runs on the package.
func inScope(rule string, pkg *Package) bool {
	pkgs, scoped := ruleScope[rule]
	if !scoped || strings.Contains(pkg.Dir, "testdata") {
		return true
	}
	_, rel, _ := strings.Cut(pkg.ImportPath, "/")
	return slices.Contains(pkgs, rel)
}

// eachFuncDecl calls fn for every declared function with a body, files
// and declarations in source order.
func eachFuncDecl(pkg *Package, fn func(fd *ast.FuncDecl)) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
