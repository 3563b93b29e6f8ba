package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
)

// CtxFlow enforces the end-to-end cancellation contract (DESIGN.md §8):
// once a query carries a context, every layer must keep carrying it, or a
// cancelled request keeps burning CPU in the layers below.
//
// Three rules, scoped to the query/serving packages (module root,
// internal/core, internal/server):
//
//  1. A function that receives a context.Context must pass a ctx-derived
//     value to every callee parameter of type context.Context. Passing
//     context.Background(), nil, or an unrelated context severs the
//     cancellation chain. "ctx-derived" is decided by a forward flow over
//     the CFG: a local rebound from the parameter (ctx =
//     context.WithValue(ctx, ...), tctx, cancel :=
//     context.WithTimeout(ctx, d)) stays derived; one rebound from
//     Background() does not, on every path it reaches.
//  2. Such a function must not synthesize context.Background()/TODO() at
//     all — the fallback belongs in the exported non-Ctx wrapper, which
//     is the one place that legitimately has no caller ctx. (Functions
//     without a ctx parameter are exactly those wrappers and are exempt.)
//  3. An unconditional `for {` loop that does work (calls, channel
//     operations) must consult cancellation somewhere in its body —
//     check ctx directly (ctx.Err()/ctx.Done()), pass ctx to a callee
//     that provably checks it (decided by the interprocedural summaries,
//     so a helper like `if stop(ctx) { return }` counts through any
//     number of hops), or select on a done channel — whether or not the
//     surrounding function receives a ctx. Merely mentioning ctx is not
//     enough: passing it to a helper that ignores it checks nothing.
//     Callees outside the module (or reached dynamically) are assumed to
//     honor a ctx they receive, since their bodies are not loaded. These
//     are the serving loops; one that cannot be stopped pins a goroutine
//     for the life of the process.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "ctx-receiving functions must thread ctx to every ctx-accepting callee and never " +
		"synthesize context.Background(); unconditional serving loops must check ctx.Err()/ctx.Done()",
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	eachFuncDecl(pass.Pkg, func(fd *ast.FuncDecl) {
		checkCtxFunc(pass, fd.Type, fd.Body, nil)
	})
	return nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool { return isNamed(t, "context", "Context") }

// ctxParams extracts the context.Context parameters of a function type.
func ctxParams(info *types.Info, ft *ast.FuncType) []*types.Var {
	var out []*types.Var
	if ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok && isContextType(v.Type()) {
				out = append(out, v)
			}
		}
	}
	return out
}

// isBackgroundCall matches context.Background() / context.TODO().
func isBackgroundCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return (sel.Sel.Name == "Background" || sel.Sel.Name == "TODO") && pkgIdent(info, sel.X, "context")
}

// checkCtxFunc analyzes one function body. inherited carries the ctx
// variables lexically visible from enclosing functions — a closure inside
// a ctx-receiving function is held to the same contract, because the
// caller's ctx is right there to use.
func checkCtxFunc(pass *Pass, ftype *ast.FuncType, body *ast.BlockStmt, inherited []*types.Var) {
	info := pass.Pkg.Info
	ctxVars := append(append([]*types.Var{}, inherited...), ctxParams(info, ftype)...)

	// Rule 3 first: it applies even without a ctx in scope.
	checkServingLoops(pass, body, ctxVars)

	// Recurse into directly nested closures with the extended ctx set:
	// the ctx variables visible here plus this body's ctx-derived
	// context locals (each recursion handles its own nested literals).
	// The locals matter for the hedged-request shape — a shared
	// WithCancel(ctx) context bound in the enclosing function and
	// captured by attempt closures still carries the caller's
	// cancellation, so closure call sites passing it are compliant.
	var cfg *CFG
	var derived map[*types.Var]bool
	closureCtx := ctxVars
	if len(ctxVars) > 0 {
		cfg = BuildCFG(body)
		derived = deriveCtxVars(info, ctxVars, cfg)
		for v := range derived {
			if !slices.Contains(closureCtx, v) {
				closureCtx = append(closureCtx, v)
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			checkCtxFunc(pass, lit.Type, lit.Body, closureCtx)
			return false
		}
		return true
	})

	if len(ctxVars) == 0 {
		return
	}

	// Rules 1 and 2 are judged by replaying each block's nodes against
	// the converged flow, unreachable blocks included (with nothing
	// underived): rule 2 holds wherever the call sits.
	replay := func(b *CFGBlock, in underived, report bool) underived {
		st := make(underived, len(in))
		maps.Copy(st, in)
		for _, n := range b.Nodes {
			if report {
				InspectShallow(n, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						checkCtxCall(pass, call, derived, st)
					}
					return true
				})
			}
			// A node's own definitions apply after the calls in it: in
			// x := f(x) the argument sees the previous x.
			eachDef(info, n, func(v *types.Var, rhs ast.Expr) {
				switch {
				case !isContextType(v.Type()):
				case derivesFrom(info, rhs, derived):
					delete(st, v)
				default:
					st[v] = true
				}
			})
		}
		return st
	}
	in := ForwardFlow(cfg, underived{}, joinUnderived, func(b *CFGBlock, st underived) underived { return replay(b, st, false) })
	for _, b := range cfg.Blocks {
		replay(b, in[b], true)
	}
}

// underived is ctxflow's flow fact: the context variables that may hold
// a value not derived from the caller's ctx at a program point. Paths
// join by union.
type underived map[*types.Var]bool

func joinUnderived(cur, out underived) (underived, bool) {
	if cur == nil {
		cur = underived{}
	}
	n := len(cur)
	maps.Copy(cur, out)
	return cur, len(cur) != n
}

// checkCtxCall applies rules 2 and 1 to one call, given the context
// variables that may be underived where it runs.
func checkCtxCall(pass *Pass, call *ast.CallExpr, derived map[*types.Var]bool, st underived) {
	info := pass.Pkg.Info
	// Rule 2: no synthesized root contexts here.
	if isBackgroundCall(info, call) {
		sel := call.Fun.(*ast.SelectorExpr)
		pass.Reportf(call.Pos(),
			"context.%s() synthesized in a function that already receives a context; "+
				"thread the caller's ctx (keep the fallback in the non-ctx wrapper)", sel.Sel.Name)
		return
	}
	// Rule 1: every context.Context parameter of the callee gets a
	// ctx-derived argument.
	sig := callSignature(info, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i := 0; i < params.Len() && i < len(call.Args); i++ {
		if sig.Variadic() && i == params.Len()-1 {
			break
		}
		if !isContextType(params.At(i).Type()) {
			continue
		}
		arg := call.Args[i]
		if isBackgroundCall(info, arg) {
			continue // already reported by rule 2 at the same spot
		}
		if !ctxDerived(info, arg, derived, st) {
			pass.Reportf(arg.Pos(),
				"callee accepts a context.Context but the argument does not derive from this function's ctx; "+
					"pass ctx (or a context derived from it)")
		}
	}
}

// callSignature resolves the callee's signature when the callee is a
// function; conversions and type expressions yield nil.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// deriveCtxVars computes, flow-insensitively, the variables with at least
// one ctx-derived definition: the fixpoint of "defined from an expression
// mentioning a derived variable", seeded with the ctx variables. Closures
// inherit the set; at a call site the flow then says whether an
// underived definition may reach instead.
func deriveCtxVars(info *types.Info, ctxVars []*types.Var, cfg *CFG) map[*types.Var]bool {
	derived := map[*types.Var]bool{}
	for _, v := range ctxVars {
		derived[v] = true
	}
	grow := func(v *types.Var, rhs ast.Expr) {
		if !derived[v] && derivesFrom(info, rhs, derived) {
			derived[v] = true
		}
	}
	for n := -1; n != len(derived); {
		n = len(derived)
		for _, b := range cfg.Blocks {
			for _, node := range b.Nodes {
				eachDef(info, node, grow)
			}
		}
	}
	return derived
}

// derivesFrom reports whether a definition's right-hand side is
// ctx-derived: present, not Background()/TODO(), and mentioning a derived
// variable.
func derivesFrom(info *types.Info, rhs ast.Expr, derived map[*types.Var]bool) bool {
	return rhs != nil && !isBackgroundCall(info, rhs) && mentionsAnyVar(info, rhs, derived)
}

// eachDef calls fn for every named local variable a shallow CFG node
// defines, with the expression it receives: eachAssign's pairing, nil for
// a range key or value.
func eachDef(info *types.Info, n ast.Node, fn func(v *types.Var, rhs ast.Expr)) {
	def := func(lhs, rhs ast.Expr) {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
			if v, ok := assignee(info, id).(*types.Var); ok {
				fn(v, rhs)
			}
		}
	}
	eachAssign(n, def)
	if rs, ok := n.(*ast.RangeStmt); ok {
		def(rs.Key, nil)
		def(rs.Value, nil)
	}
}

func mentionsAnyVar(info *types.Info, n ast.Node, vars map[*types.Var]bool) bool {
	return usesAny(info, n, func(o types.Object) bool {
		v, ok := o.(*types.Var)
		return ok && vars[v]
	})
}

// ctxDerived reports whether the argument expression carries the caller's
// cancellation: it mentions a context-typed variable, and every one it
// mentions is derived and may not hold an underived value here. An
// argument with none (a nil literal, a fresh value from some call) does
// not carry the caller's ctx.
func ctxDerived(info *types.Info, arg ast.Expr, derived map[*types.Var]bool, st underived) bool {
	saw, ok := false, true
	ast.Inspect(arg, func(x ast.Node) bool {
		if id, isIdent := x.(*ast.Ident); isIdent {
			if v, isVar := info.Uses[id].(*types.Var); isVar && isContextType(v.Type()) {
				saw = true
				ok = ok && derived[v] && !st[v]
			}
		}
		return true
	})
	return saw && ok
}

// checkServingLoops flags unconditional for-loops that do blocking work
// without consulting cancellation (rule 3).
func checkServingLoops(pass *Pass, body *ast.BlockStmt, ctxVars []*types.Var) {
	sameFuncInspect(body, func(n ast.Node) bool {
		fs, ok := n.(*ast.ForStmt)
		if !ok || fs.Cond != nil || fs.Init != nil || fs.Post != nil {
			return true
		}
		if !loopDoesWork(fs.Body) {
			return true
		}
		if loopChecksCancel(pass, fs.Body, ctxVars) {
			return true
		}
		pass.Reportf(fs.Pos(),
			"unconditional loop does blocking work but never checks ctx.Err()/ctx.Done() "+
				"(or a done channel); a cancelled query cannot stop it")
		return true
	})
}

// loopDoesWork reports whether the loop body performs calls or channel
// operations (the things that take time or block).
func loopDoesWork(body *ast.BlockStmt) bool {
	found := false
	sameFuncInspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// A bare conversion or builtin like len() is not work, but
			// distinguishing them needs type info we can live without:
			// any call counts.
			found = true
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		}
		return !found
	})
	return found
}

// loopChecksCancel reports whether the loop body consults cancellation:
// calls ctx.Err()/ctx.Done() on a visible ctx variable, passes a ctx
// variable to a callee that checks it (per the module summaries; callees
// without a loaded body are trusted), or selects/receives on a channel
// in a way that can exit the loop.
func loopChecksCancel(pass *Pass, body *ast.BlockStmt, ctxVars []*types.Var) bool {
	info := pass.Pkg.Info
	vars := map[*types.Var]bool{}
	for _, v := range ctxVars {
		vars[v] = true
	}
	checked := false
	sameFuncInspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !checked
		}
		// Direct check: v.Err() / v.Done() on a visible ctx variable.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
			(sel.Sel.Name == "Err" || sel.Sel.Name == "Done") {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok && vars[v] {
					checked = true
					return false
				}
			}
		}
		// Indirect check: a ctx variable handed to a callee that consults
		// it. Module callees must prove it via their summary; callees the
		// loader has no body for are assumed to honor the ctx.
		passesCtx := false
		for _, arg := range call.Args {
			if mentionsAnyVar(info, arg, vars) {
				passesCtx = true
				break
			}
		}
		if passesCtx {
			callee, dynamic := staticCallee(info, call)
			if fi := pass.Mod.FuncOf(callee); fi != nil {
				if fi.Summary.ChecksCtx {
					checked = true
				}
			} else if dynamic || callee != nil {
				checked = true
			}
		}
		return !checked
	})
	if checked {
		return true
	}
	// A select with a receive case whose body can leave the loop (return
	// or break) is the done-channel idiom: `case <-d.done: return`.
	found := false
	sameFuncInspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, cc := range sel.Body.List {
			cc := cc.(*ast.CommClause)
			if cc.Comm == nil {
				continue
			}
			for _, st := range cc.Body {
				ast.Inspect(st, func(m ast.Node) bool {
					switch m.(type) {
					case *ast.ReturnStmt, *ast.BranchStmt:
						found = true
					}
					return !found
				})
			}
		}
		return !found
	})
	return found
}
