package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// callgraph.go builds the module-wide interprocedural layer the
// cross-function analyzers run on: a static call graph over every
// function body the loader produced, per-function effect summaries
// (summary.go) propagated to a fixed point through that graph, and the
// //lint:hotpath root set the hotalloc analyzer (hotalloc.go) starts
// from.
//
// The graph is deliberately static-only. A call whose callee cannot be
// resolved to a single declared function — a call through a function
// value, or dynamic dispatch through an interface — contributes no edge;
// instead the call site is recorded so analyzers that need soundness
// (hotalloc) can report it as unverifiable rather than silently assume
// it benign. Function literals are not graph nodes: creating one is an
// effect of the enclosing function (a closure allocation), and calling
// one is a dynamic call, so their bodies never execute "inside" the
// enclosing function as far as the summaries are concerned.

// hotpathMarker marks a function declaration as a hot-path root: every
// allocation site reachable from it through the call graph is a hotalloc
// diagnostic. The marker goes in the function's doc comment, optionally
// followed by a reason.
const hotpathMarker = "//lint:hotpath"

// A Module is the cross-package view of one load: every package the
// loader type-checked, every declared function body, the call edges
// between them, and the computed summaries. It is immutable after
// BuildModule, so per-package analyzer goroutines share it freely.
type Module struct {
	// Pkgs lists the packages in sorted import-path order.
	Pkgs []*Package
	// Funcs lists every declared function with a body, in deterministic
	// order (packages sorted, files and declarations in source order).
	Funcs []*FuncInfo

	byObj map[*types.Func]*FuncInfo

	// hotOnce guards the lazily computed hot-path reachability (the BFS
	// is only needed when hotalloc actually runs).
	hotOnce  sync.Once
	hotChain map[*FuncInfo][]*FuncInfo

	// lt caches each package's lifetime verdicts (lifetime.go): three
	// rules read them, the engine runs once.
	ltMu sync.Mutex
	lt   map[*Package][]ltVerdict
}

// A FuncInfo is one declared function body in the module.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Hot marks a //lint:hotpath root.
	Hot bool
	// Sanitized marks a //lint:sanitized helper: callers may trust its
	// arguments and results as bounds-checked (taint.go).
	Sanitized bool
	// Callees are the statically resolved calls made by this body
	// (excluding nested function literals), in source order. Calls to
	// functions outside the module (no body loaded) have Info == nil.
	Callees []CallEdge
	// Summary holds the computed effect summary (summary.go).
	Summary Summary

	// taint is the precomputed local taint graph (taint.go).
	taint *taintLocal
}

// Name renders the function for diagnostics: "stepChunk" for package
// functions, "WalkTable.StepWalks" for methods.
func (fi *FuncInfo) Name() string {
	if recv := fi.Obj.Type().(*types.Signature).Recv(); recv != nil {
		if named, ok := deref(recv.Type()).(*types.Named); ok {
			return named.Obj().Name() + "." + fi.Obj.Name()
		}
	}
	return fi.Obj.Name()
}

// A CallEdge is one statically resolved call site.
type CallEdge struct {
	// Callee is the called function's declared object. Never nil.
	Callee *types.Func
	// Info is the callee's module-local FuncInfo, nil for functions
	// whose body the loader did not load (standard library).
	Info *FuncInfo
	// Call is the call expression, for diagnostics.
	Call *ast.CallExpr
}

// BuildModule assembles the interprocedural layer over the given
// packages: the call graph, the hotpath root set, and the fixed-point
// effect summaries. The input order does not matter; packages are
// sorted by import path so every derived ordering is deterministic.
func BuildModule(pkgs []*Package) *Module {
	mod := &Module{
		Pkgs:  append([]*Package{}, pkgs...),
		byObj: map[*types.Func]*FuncInfo{},
		lt:    map[*Package][]ltVerdict{},
	}
	sort.Slice(mod.Pkgs, func(i, j int) bool { return mod.Pkgs[i].ImportPath < mod.Pkgs[j].ImportPath })

	for _, pkg := range mod.Pkgs {
		eachFuncDecl(pkg, func(fd *ast.FuncDecl) {
			if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				fi := &FuncInfo{Obj: obj, Decl: fd, Pkg: pkg, Hot: docMarked(fd, hotpathMarker), Sanitized: docMarked(fd, sanitizedMarker)}
				mod.Funcs = append(mod.Funcs, fi)
				mod.byObj[obj] = fi
			}
		})
	}

	// Second pass: with every declared function known, resolve call
	// edges and compute direct summaries, then propagate to fixed point.
	for _, fi := range mod.Funcs {
		collectCalls(fi, mod)
		summarizeDirect(fi, mod)
		taintDirect(fi, mod)
	}
	propagateSummaries(mod)
	propagateTaint(mod)
	return mod
}

// FuncOf returns the module's FuncInfo for a declared function, or nil
// for functions without a loaded body.
func (m *Module) FuncOf(obj *types.Func) *FuncInfo {
	if m == nil || obj == nil {
		return nil
	}
	return m.byObj[obj]
}

// collectCalls records fi's statically resolved call edges, in source
// order, excluding calls inside nested function literals (a literal's
// body is not executed by this function; creating it is summarized as an
// allocation instead). Unresolvable calls land in the summary's dynamic
// set via summarizeDirect.
func collectCalls(fi *FuncInfo, mod *Module) {
	info := fi.Pkg.Info
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee, _ := staticCallee(info, call)
		if callee == nil {
			return true
		}
		fi.Callees = append(fi.Callees, CallEdge{Callee: callee, Info: mod.byObj[callee], Call: call})
		return true
	})
}

// staticCallee resolves the single declared function a call must reach,
// or reports the call as dynamic (a function value, an interface method,
// or anything else whose target depends on runtime state). Conversions
// and builtins resolve to (nil, false): they are not calls into user
// code at all.
func staticCallee(info *types.Info, call *ast.CallExpr) (callee *types.Func, dynamic bool) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return nil, false // conversion
	}
	fun := ast.Unparen(call.Fun)
	// Unwrap explicit generic instantiation: f[T](...) and m.f[T](...).
	switch f := fun.(type) {
	case *ast.IndexExpr:
		if isFuncExpr(info, f.X) {
			fun = ast.Unparen(f.X)
		}
	case *ast.IndexListExpr:
		fun = ast.Unparen(f.X)
	}
	switch f := fun.(type) {
	case *ast.Ident:
		switch o := info.Uses[f].(type) {
		case *types.Func:
			return o, false
		case *types.Builtin, *types.TypeName, *types.Nil, nil:
			return nil, false
		default: // *types.Var: a call through a function value
			return nil, true
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			if sel.Kind() != types.MethodVal {
				return nil, true // calling a func-typed field
			}
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil, true
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				return nil, true // dynamic dispatch
			}
			// A method of an instantiated generic type is its own object;
			// the declaration the call graph knows is its origin.
			return fn.Origin(), false
		}
		// Qualified identifier: pkg.Func or pkg.Var.
		switch o := info.Uses[f.Sel].(type) {
		case *types.Func:
			return o, false
		case *types.TypeName, *types.Builtin, nil:
			return nil, false
		default:
			return nil, true
		}
	}
	// Call of a call result, a type-asserted func, an invoked literal, …
	return nil, true
}

// isFuncExpr reports whether e denotes a function (so an IndexExpr over
// it is a generic instantiation, not a map/slice index yielding a func).
func isFuncExpr(info *types.Info, e ast.Expr) bool {
	switch f := ast.Unparen(e).(type) {
	case *ast.Ident:
		_, ok := info.Uses[f].(*types.Func)
		return ok
	case *ast.SelectorExpr:
		_, ok := info.Uses[f.Sel].(*types.Func)
		return ok
	}
	return false
}

// hotReach returns, for every function reachable from a //lint:hotpath
// root through static call edges, the call chain (root first, the
// function itself last) that first reached it. Computed once per module
// by BFS in deterministic root/edge order, so the reported chain for a
// given tree is stable.
func (m *Module) hotReach() map[*FuncInfo][]*FuncInfo {
	m.hotOnce.Do(func() {
		m.hotChain = map[*FuncInfo][]*FuncInfo{}
		var queue []*FuncInfo
		for _, fi := range m.Funcs {
			if fi.Hot {
				m.hotChain[fi] = []*FuncInfo{fi}
				queue = append(queue, fi)
			}
		}
		for len(queue) > 0 {
			fi := queue[0]
			queue = queue[1:]
			chain := m.hotChain[fi]
			for _, edge := range fi.Callees {
				if edge.Info == nil {
					continue
				}
				if _, seen := m.hotChain[edge.Info]; seen {
					continue
				}
				next := make([]*FuncInfo, len(chain), len(chain)+1)
				copy(next, chain)
				m.hotChain[edge.Info] = append(next, edge.Info)
				queue = append(queue, edge.Info)
			}
		}
	})
	return m.hotChain
}

// chainString renders a hot-reach chain for diagnostics.
func chainString(chain []*FuncInfo) string {
	parts := make([]string, len(chain))
	for i, fi := range chain {
		parts[i] = fi.Name()
	}
	return strings.Join(parts, " → ")
}
