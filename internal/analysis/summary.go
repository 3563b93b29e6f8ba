package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// summary.go computes per-function effect summaries over the call graph
// (callgraph.go). A summary has two layers:
//
//   - Direct facts, read straight off the body: allocation sites (the
//     full catalogue hotalloc reports — make/new, map/slice/closure
//     literals, growing appends, interface boxing at call boundaries,
//     string concatenation, goroutine spawns, plus calls the analysis
//     cannot see through: dynamic calls and non-allowlisted external
//     functions), goroutine spawns and ctx checks.
//   - Transitive facts, propagated through static call edges to a fixed
//     point, among them the pool shapes the lifetime engine pairs up
//     (lifetime.go): every boolean is monotone (false → true only), and
//     ReleasesParams flows through argument positions, so the worklist
//     terminates.
//
// Effects inside nested function literals are deliberately NOT effects
// of the enclosing function: the literal only runs when called, calling
// it is a dynamic call, and creating it is already summarized as a
// closure allocation. This keeps the lattice simple and errs on the
// side the analyzers want (hotalloc flags the closure itself).

// An AllocSite is one statement or expression that may allocate on the
// heap (or that the analysis cannot prove allocation-free).
type AllocSite struct {
	Pos token.Pos
	// What describes the site for diagnostics, e.g. "make([]uint32)"
	// or "call to fmt.Sprintf (external, not proven allocation-free)".
	What string
}

// A Summary is one function's effect summary.
type Summary struct {
	// Allocs lists the direct allocation sites of this body, in source
	// order.
	Allocs []AllocSite

	// Transitive effects (direct or through any static callee chain).
	Allocates       bool // has an alloc site, or calls something that does
	SpawnsGoroutine bool // executes a go statement
	ChecksCtx       bool // consults ctx.Err()/ctx.Done() on a context value

	// Pool shapes (lifetime.go): AcquiresScratch marks a function whose
	// return value is a freshly acquired pooled object (directly `return
	// e.getScratch()` or through such a helper); ReleasesParams[i] marks
	// a function that passes its i-th parameter to putScratch/pool.Put
	// (directly or through such a helper).
	AcquiresScratch bool
	ReleasesParams  []bool

	// Taint shapes (wiretaint, taint.go): TaintsResults marks a function
	// returning a value derived from untrusted wire input; TaintsParams[i]
	// marks one that stores such a value through its i-th parameter;
	// TaintSinkParams[i] marks one whose i-th parameter reaches a
	// size/index sink without a bounds check.
	TaintsResults   bool
	TaintsParams    []bool
	TaintSinkParams []bool
}

// hotallocExternPkgAllow lists external packages every function of which
// is trusted allocation-free on the hot path: pure-ALU math and the
// atomic intrinsics.
var hotallocExternPkgAllow = map[string]bool{
	"sync/atomic": true,
	"math":        true,
	"math/bits":   true,
}

// hotallocExternFuncAllow lists individually trusted external functions
// (in-place algorithms over caller-owned storage). Notably absent:
// slices.Clone and friends, which exist to allocate.
var hotallocExternFuncAllow = map[string]bool{
	"slices.Sort":         true,
	"slices.BinarySearch": true,
	"cmp.Compare":         true,
	"cmp.Less":            true,
}

// externAllocFree reports whether a callee without a loaded body is
// trusted not to allocate.
func externAllocFree(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return true // error.Error and friends resolve pkg-less; dynamic anyway
	}
	if hotallocExternPkgAllow[pkg.Path()] {
		return true
	}
	return hotallocExternFuncAllow[pkg.Path()+"."+fn.Name()]
}

// summarizeDirect fills fi.Summary with the facts visible in fi's own
// body (no propagation yet). The module is needed to classify callees:
// module-local functions contribute through call edges, everything else
// is trusted or flagged on the spot.
func summarizeDirect(fi *FuncInfo, mod *Module) {
	info := fi.Pkg.Info
	s := &fi.Summary
	s.ReleasesParams = make([]bool, len(fi.params()))

	// Appends in the canonical amortized-growth form `x = append(x, …)`
	// reuse (and at steady state never grow) their destination; they are
	// the one append shape the hot path is allowed, and x may be an
	// element (`rows[t] = append(rows[t], …)`, a pooled row growing into
	// its own capacity). The walk meets the assignment before the call
	// inside it.
	amortized := map[*ast.CallExpr]bool{}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			s.alloc(n.Pos(), "function literal (closure) allocation")
			return false // the literal's body is its own function
		case *ast.GoStmt:
			s.SpawnsGoroutine = true
			s.alloc(n.Pos(), "go statement (goroutine spawn)")
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					s.alloc(n.Pos(), "heap-allocated composite literal (&T{…})")
				}
			}
		case *ast.CompositeLit:
			switch typeOf(info, n).Underlying().(type) {
			case *types.Map:
				s.alloc(n.Pos(), "map literal allocation")
			case *types.Slice:
				s.alloc(n.Pos(), "slice literal allocation")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(typeOf(info, n.X)) {
				s.alloc(n.Pos(), "string concatenation")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(typeOf(info, n.Lhs[0])) {
				s.alloc(n.Pos(), "string concatenation")
			}
			eachAssign(n, func(lhs, rhs ast.Expr) {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if ok && len(n.Lhs) == len(n.Rhs) && calleeName(call) == "append" && len(call.Args) > 0 {
					dst := renderKey(lhs, true)
					amortized[call] = dst != "" && dst == renderKey(ast.Unparen(call.Args[0]), true)
				}
			})
		case *ast.CallExpr:
			summarizeCall(fi, mod, n, amortized)
		}
		return true
	})
}

// summarizeCall classifies one call expression: builtin allocators,
// allocating conversions, ctx checks, interface boxing at the call
// boundary, and calls the analysis cannot see through.
func summarizeCall(fi *FuncInfo, mod *Module, call *ast.CallExpr, amortized map[*ast.CallExpr]bool) {
	info := fi.Pkg.Info
	s := &fi.Summary

	// Conversions: string ↔ byte/rune slice copies allocate.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst, src := tv.Type, typeOf(info, call.Args[0])
		switch {
		case isStringType(dst) && isSliceType(src):
			s.alloc(call.Pos(), "string(…) conversion from a slice")
		case isSliceType(dst) && isStringType(src):
			s.alloc(call.Pos(), "[]byte/[]rune(…) conversion from a string")
		}
		return
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				s.alloc(call.Pos(), "make(…)")
			case "new":
				s.alloc(call.Pos(), "new(…)")
			case "append":
				if !amortized[call] {
					s.alloc(call.Pos(), "append into a fresh slice (only `x = append(x, …)` amortizes)")
				}
			}
			return
		}
	}

	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
		(sel.Sel.Name == "Err" || sel.Sel.Name == "Done") && isContextType(typeOf(info, sel.X)) {
		s.ChecksCtx = true
	}

	callee, dynamic := staticCallee(info, call)
	if dynamic {
		s.alloc(call.Pos(), "dynamic call (function value or interface method); cannot be proven allocation-free")
		return
	}
	if callee != nil && mod.FuncOf(callee) == nil {
		// Callee with no loaded body: trust the allowlist, flag
		// everything else. Module-local callees with bodies contribute
		// their own sites through the call graph instead.
		if !externAllocFree(callee) {
			s.alloc(call.Pos(), fmt.Sprintf("call to %s (external, not proven allocation-free)", externName(callee)))
		}
	}

	// Interface boxing: a concrete argument passed to an interface-typed
	// parameter is boxed at the call boundary.
	sig := callSignature(info, call)
	if sig == nil || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			st, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = st.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !isBoxingParam(pt) {
			continue
		}
		at := typeOf(info, arg)
		if at == nil || types.IsInterface(at) || isNilExpr(info, arg) {
			continue
		}
		s.alloc(arg.Pos(), "interface boxing at call boundary (concrete value passed as interface)")
	}
}

// propagateSummaries runs the boolean effect lattice to a fixed point
// over the call graph: each pass ors every callee's transitive bits into
// its callers, flows ReleasesParams through argument positions (from the
// literal putScratch/pool.Put shapes up through any helper) and
// AcquiresScratch through returned acquires. All facts only ever go
// false → true, so the iteration terminates.
func propagateSummaries(mod *Module) {
	for _, fi := range mod.Funcs {
		fi.Summary.Allocates = len(fi.Summary.Allocs) > 0
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range mod.Funcs {
			s := &fi.Summary
			info := fi.Pkg.Info
			for _, edge := range fi.Callees {
				// Handing parameter i back to a pool, here or in the
				// callee, makes this function release parameter i.
				for _, arg := range releasedArgs(info, mod, edge.Call) {
					if i := fi.paramIndex(arg); i >= 0 && !s.ReleasesParams[i] {
						s.ReleasesParams[i] = true
						changed = true
					}
				}
				if edge.Info == nil {
					continue
				}
				cs := &edge.Info.Summary
				changed = orInto(&s.Allocates, cs.Allocates) || changed
				changed = orInto(&s.SpawnsGoroutine, cs.SpawnsGoroutine) || changed
				// ChecksCtx flows only when the caller hands the callee a
				// context to check.
				if cs.ChecksCtx && callPassesContext(info, edge.Call) {
					changed = orInto(&s.ChecksCtx, true) || changed
				}
			}
			if !s.AcquiresScratch && returnsAcquire(fi, mod) {
				s.AcquiresScratch = true
				changed = true
			}
		}
	}
}

func orInto(dst *bool, src bool) bool {
	if src && !*dst {
		*dst = true
		return true
	}
	return false
}

// returnsAcquire reports whether some return statement of fi returns a
// freshly acquired pooled object: the literal shapes, or a call to a
// helper whose summary says it acquires.
func returnsAcquire(fi *FuncInfo, mod *Module) bool {
	found := false
	sameFuncInspect(fi.Decl.Body, func(n ast.Node) bool {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, res := range ret.Results {
				found = found || acquireExpr(fi.Pkg.Info, mod, res)
			}
		}
		return !found
	})
	return found
}

// callPassesContext reports whether any argument of the call is
// context-typed (the handle the callee's ctx check runs on).
func callPassesContext(info *types.Info, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if isContextType(typeOf(info, arg)) {
			return true
		}
	}
	return false
}

// params returns the function's parameter names by position (nil for an
// unnamed parameter; receivers are not parameters).
func (fi *FuncInfo) params() []*ast.Ident {
	var out []*ast.Ident
	if fi.Decl.Type.Params == nil {
		return nil
	}
	for _, field := range fi.Decl.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
		}
		out = append(out, field.Names...)
	}
	return out
}

// paramIndex maps an argument expression to the index of the function
// parameter it denotes, or -1 (receivers and locals are not parameters).
func (fi *FuncInfo) paramIndex(arg ast.Expr) int {
	id, ok := ast.Unparen(arg).(*ast.Ident)
	if !ok {
		return -1
	}
	obj := fi.Pkg.Info.Uses[id]
	for i, name := range fi.params() {
		if obj != nil && name != nil && fi.Pkg.Info.Defs[name] == obj {
			return i
		}
	}
	return -1
}

// externName renders an external function for diagnostics.
func externName(fn *types.Func) string {
	if pkg := fn.Pkg(); pkg != nil {
		return pkg.Name() + "." + fn.Name()
	}
	return fn.Name()
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isSliceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// isBoxingParam reports whether passing a concrete value for a parameter
// of this type boxes it: true interface types only — a type parameter's
// underlying is an interface but instantiation makes it concrete.
func isBoxingParam(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, isTP := t.(*types.TypeParam); isTP {
		return false
	}
	return types.IsInterface(t)
}

func isNilExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	return ok && tv.IsNil()
}

func (s *Summary) alloc(pos token.Pos, what string) {
	s.Allocs = append(s.Allocs, AllocSite{Pos: pos, What: what})
}
