package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
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
//     cancellation chain. "ctx-derived" is decided with reaching
//     definitions over the CFG: a local rebound from the parameter
//     (ctx = context.WithValue(ctx, ...), tctx, cancel :=
//     context.WithTimeout(ctx, d)) stays derived; one rebound from
//     Background() does not.
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
	var rdEntry map[*CFGBlock]DefSet
	var derivedVars map[*types.Var]bool
	closureCtx := ctxVars
	if len(ctxVars) > 0 {
		cfg = BuildCFG(body)
		var all []*Definition
		rdEntry, all = ReachingDefs(cfg, info, ctxVars)
		derivedVars = deriveCtxVars(info, ctxVars, all)
		for v := range derivedVars {
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

	sameFuncInspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Rule 2: no synthesized root contexts here.
		if isBackgroundCall(info, call) {
			sel := call.Fun.(*ast.SelectorExpr)
			pass.Reportf(call.Pos(),
				"context.%s() synthesized in a function that already receives a context; "+
					"thread the caller's ctx (keep the fallback in the non-ctx wrapper)", sel.Sel.Name)
			return true
		}
		// Rule 1: every context.Context parameter of the callee gets a
		// ctx-derived argument.
		sig := callSignature(info, call)
		if sig == nil {
			return true
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
			if !ctxDerived(info, arg, ctxVars, derivedVars, cfg, rdEntry, call) {
				pass.Reportf(arg.Pos(),
					"callee accepts a context.Context but the argument does not derive from this function's ctx; "+
						"pass ctx (or a context derived from it)")
			}
		}
		return true
	})
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

// deriveCtxVars computes, flow-insensitively, the set of context-typed
// variables with at least one ctx-derived definition: the fixpoint of
// "defined from an expression mentioning a derived variable". Used as the
// optimistic seed; the flow-sensitive check below then consults reaching
// definitions at the use site.
func deriveCtxVars(info *types.Info, ctxVars []*types.Var, all []*Definition) map[*types.Var]bool {
	derived := map[*types.Var]bool{}
	for _, v := range ctxVars {
		derived[v] = true
	}
	for changed := true; changed; {
		changed = false
		for _, def := range all {
			if def.Rhs == nil || derived[def.Var] {
				continue
			}
			if isBackgroundCall(info, def.Rhs) {
				continue
			}
			if mentionsAnyVar(info, def.Rhs, derived) {
				derived[def.Var] = true
				changed = true
			}
		}
	}
	return derived
}

func mentionsAnyVar(info *types.Info, n ast.Node, vars map[*types.Var]bool) bool {
	return usesAny(info, n, func(o types.Object) bool {
		v, ok := o.(*types.Var)
		return ok && vars[v]
	})
}

// defDerived decides whether one reaching definition is ctx-derived.
func defDerived(info *types.Info, def *Definition, ctxVars []*types.Var, derivedVars map[*types.Var]bool) bool {
	if def.Node == nil {
		// Parameter definition: derived iff it is one of the ctx params.
		for _, v := range ctxVars {
			if v == def.Var {
				return true
			}
		}
		return false
	}
	if def.Rhs == nil {
		return false
	}
	if isBackgroundCall(info, def.Rhs) {
		return false
	}
	return mentionsAnyVar(info, def.Rhs, derivedVars)
}

// ctxDerived reports whether the argument expression carries the caller's
// cancellation: every context-typed variable it mentions must have only
// ctx-derived reaching definitions at the call (a ctx parameter's initial
// definition is derived; a rebind from Background() is not).
func ctxDerived(info *types.Info, arg ast.Expr, ctxVars []*types.Var, derivedVars map[*types.Var]bool, cfg *CFG, rdEntry map[*CFGBlock]DefSet, call *ast.CallExpr) bool {
	// Locate the block containing the call to get flow-sensitive defs.
	var blk *CFGBlock
	var defs DefSet
	for _, b := range cfg.Blocks {
		in, reachable := rdEntry[b]
		if !reachable {
			continue
		}
		for _, n := range b.Nodes {
			if containsNode(n, call) {
				blk = b
				defs = DefsAt(b, in, info, call)
				break
			}
		}
		if blk != nil {
			break
		}
	}
	// Check every context-typed variable the argument mentions.
	sawCtxVar := false
	ok := true
	ast.Inspect(arg, func(x ast.Node) bool {
		id, isIdent := x.(*ast.Ident)
		if !isIdent {
			return true
		}
		v, isVar := info.Uses[id].(*types.Var)
		if !isVar || !isContextType(v.Type()) {
			return true
		}
		sawCtxVar = true
		if defs != nil {
			if reaching, has := defs[v]; has {
				for def := range reaching {
					if !defDerived(info, def, ctxVars, derivedVars) {
						ok = false
					}
				}
				return true
			}
		}
		// No flow information (call in unreachable code, or var defined
		// outside this function): fall back to the optimistic set.
		if !derivedVars[v] {
			ok = false
		}
		return true
	})
	// An argument with no context-typed variable at all (nil literal, a
	// fresh value from some call) does not carry the caller's ctx.
	return sawCtxVar && ok
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
