package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Analyzers returns the full simlint rule set in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapIter,
		PoolBalance,
		GoSpawn,
		LockBalance,
		CtxFlow,
		UnsafeConfine,
		HotAlloc,
		WireTaint,
		PoolEscape,
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
	// Every tier that owns a sync.Pool of working memory: the engine's
	// scratches, the wire codec's frame buffers, the shard server's
	// request scratch, the router's gathers, replies and connections.
	"poolbalance": {"internal/core", "internal/wire", "internal/server", "internal/router"},
	"poolescape":  {"internal/core", "internal/wire", "internal/server", "internal/router"},
	// Every serving-tier package that declares a mutex: the engine
	// (DynamicEngine, cache stripes) and the router (binclient's
	// connection pool, the bin-client table).
	"lockbalance": {"internal/core", "internal/server", "internal/router"},
	// The packages whose concurrency shape is pinned: the engine and the
	// router's scatter-gather layer.
	"gospawn": {"internal/core", "internal/router"},
	// The query path: the root package's public API wrappers, the
	// engine, the HTTP layer and the scatter-gather tier (whose hedged
	// helper must derive every attempt's context from the caller's).
	"ctxflow": {"", "internal/core", "internal/server", "internal/router"},
	// The packages that handle untrusted wire input: the binary codec,
	// the shard server (TCP listener and HTTP bodies) and the router
	// (HTTP bodies and shard responses). Binary reads in trusted
	// persistence files are not attacker-controlled.
	"wiretaint": {"internal/wire", "internal/server", "internal/router"},
}

// inScope reports whether the rule runs on the package.
func inScope(rule string, pkg *Package) bool {
	pkgs, scoped := ruleScope[rule]
	if !scoped || strings.Contains(pkg.ImportPath, "testdata/") || strings.Contains(pkg.Dir, "testdata") {
		return true
	}
	rel, ok := modRelPath(pkg)
	return ok && slices.Contains(pkgs, rel)
}

// modRelPath returns the package path relative to the module root
// ("internal/core", "" for the root package). Non-module packages (bare
// fixture dirs) report false.
func modRelPath(pkg *Package) (string, bool) {
	path := pkg.ImportPath
	if i := strings.Index(path, "/"); i >= 0 {
		return path[i+1:], true
	}
	// The module root package itself ("repro") has no slash.
	if path != "" && !strings.Contains(path, ".") && pkg.Name != "main" {
		return "", true
	}
	return "", false
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

// eachFunc calls fn once per function body in the package: every
// declared function and every function literal, each with its own type
// and body. A literal is analyzed as an independent function (its
// returns and defers are its own), which is how the worker-pool closures
// in internal/core behave.
func eachFunc(pkg *Package, fn func(ftype *ast.FuncType, body *ast.BlockStmt)) {
	eachFuncDecl(pkg, func(fd *ast.FuncDecl) {
		fn(fd.Type, fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				fn(lit.Type, lit.Body)
			}
			return true
		})
	})
}

// sameFuncInspect walks the statements of body that belong to this
// function, never descending into nested FuncLits.
func sameFuncInspect(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}

// pkgIdent reports whether expr is a reference to the named import, e.g.
// pkgIdent(info, x, "time") for the x in x.Now().
func pkgIdent(info *types.Info, expr ast.Expr, name string) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		imported := pn.Imported()
		return imported.Name() == name || strings.HasSuffix(imported.Path(), "/"+name)
	}
	// Fallback when type info is incomplete: trust the identifier text.
	return id.Name == name && info.Uses[id] == nil
}

// usesAny reports whether the subtree references an object pred accepts.
func usesAny(info *types.Info, n ast.Node, pred func(types.Object) bool) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && info.Uses[id] != nil && pred(info.Uses[id]) {
			found = true
		}
		return !found
	})
	return found
}

// mentionsObj reports whether the subtree references the given object.
func mentionsObj(info *types.Info, n ast.Node, obj types.Object) bool {
	return usesAny(info, n, func(o types.Object) bool { return o == obj })
}

// mentionsKey reports whether any subexpression of n renders (via
// exprKey) to the given key; used to track selector expressions like
// s.out where there is no single object identity.
func mentionsKey(n ast.Node, key string) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if e, ok := x.(ast.Expr); ok && exprKey(e) == key {
			found = true
		}
		return !found
	})
	return found
}

// exprKey renders simple ident/selector chains ("s.out", "e.pool") to a
// comparable string; other expression forms yield "".
func exprKey(e ast.Expr) string { return renderKey(e, false) }

// renderKey is exprKey that, when indexed is set, also renders index
// expressions, literals and dereferences ("c.stripes[i].mu"), so that an
// element of an array of structs gets a key of its own.
func renderKey(e ast.Expr, indexed bool) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := renderKey(e.X, indexed); base != "" {
			return base + "." + e.Sel.Name
		}
	case *ast.ParenExpr:
		return renderKey(e.X, indexed)
	case *ast.IndexExpr:
		if !indexed {
			return ""
		}
		if base, idx := renderKey(e.X, true), renderKey(e.Index, true); base != "" && idx != "" {
			return base + "[" + idx + "]"
		}
	case *ast.BasicLit:
		if indexed {
			return e.Value
		}
	case *ast.StarExpr:
		if indexed {
			return renderKey(e.X, indexed)
		}
	}
	return ""
}

// chainRoot strips an access path down to the expression it starts
// from, through selectors, indexing, slicing, dereferences, address-of
// and parens: s.buf[i:], (*s).n and &s.x all start from s.
func chainRoot(e ast.Expr) ast.Expr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return x
			}
			e = x.X
		default:
			return x
		}
	}
}

// typeOf returns the static type of e, or nil.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// deref strips one pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// isNamed reports whether t is a named type of the package with the
// given path, and one of names when any are given.
func isNamed(t types.Type, pkgPath string, names ...string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath &&
		(len(names) == 0 || slices.Contains(names, obj.Name()))
}

// isBuiltinCall matches a call of the named builtin (make, new, append).
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// docMarked reports whether the declaration's doc comment carries the
// marker (//lint:hotpath, //lint:sanitized), alone on a line or followed
// by a reason.
func docMarked(fd *ast.FuncDecl, marker string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(c.Text)
		if text == marker || strings.HasPrefix(text, marker+" ") {
			return true
		}
	}
	return false
}

// calleeName returns the final name of a call target: "Sort" for
// sort.Slice is "Slice", for x.Sort() is "Sort", for sortScored(..) is
// "sortScored".
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
