package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// taint.go holds the two halves of wire-taint tracking that wiretaint.go
// reports from: the lowering of a CFG node to taint events — the one
// place that knows what a source, a guard, a sink or an assignment looks
// like in the AST — and the module-wide summary, which closes over each
// function's events flow-insensitively and propagates per-function facts
// through static call edges, so helper-wrapped sources and sinks are
// understood across functions. The path-sensitive reporter replays the
// same events block by block.
//
// The facts mirror the pool shapes in summary.go:
//
//   - TaintsResults: some return value derives from an untrusted source
//     (a binary frame read, strconv parse of a query parameter, JSON
//     body decode), directly or through a tainting callee. The typed
//     wire decoders (Frame.TopKReq and friends) earn this fact.
//   - TaintsParams[i]: the function stores an untrusted value through
//     its i-th parameter (a pointer or a field of it), e.g. the dst of
//     Frame.TopKResp.
//   - TaintSinkParams[i]: the i-th parameter reaches a size/index sink
//     (make length, slice/array index, loop bound, io read limit)
//     without ever being bounds-checked in the body, directly or by
//     forwarding it to another sink parameter.
//
// Sources are seeded only in wiretaint's packages (ruleScope) — binary
// reads in trusted persistence files are not attacker-controlled. Sink
// and store facts are computed module-wide so a scoped caller sees
// through helpers wherever they live.
//
// Sanitizers are syntactic by design: a comparison (<, <=, >, >=, ==,
// !=) whose operand mentions a value "bare" (possibly under
// conversions, arithmetic, or len/cap — but not as somebody's index)
// clears its taint, and a helper can be trusted wholesale with a
// //lint:sanitized marker in its doc comment. The flow-insensitive
// summary treats a key guarded anywhere in the body as clean
// everywhere; the reporter is path-sensitive and stricter.

// sanitizedMarker marks a helper whose callers may trust its arguments
// and results as bounds-checked. The marker goes in the function's doc
// comment, followed by a reason (like //lint:hotpath).
const sanitizedMarker = "//lint:sanitized"

// Pseudo-keys the summary uses as assignment targets: the function's
// results, and a store through its i-th parameter.
const taintRetKey = "\x00ret"

func taintParamKey(i int) string { return "\x00p" + strconv.Itoa(i) }

// A taintTerm is one piece of an expression that can carry wire data: a
// variable chain ("h.n"), the result of a module function, or — with
// neither set — a direct untrusted read.
type taintTerm struct {
	key    string
	callee *FuncInfo
}

// taintEventKind says what a CFG node does to the taint state.
type taintEventKind uint8

const (
	// evGuard: key was compared against something (or passed to a
	// //lint:sanitized helper) — a bounds check.
	evGuard taintEventKind = iota
	// evSink: terms reach the size/index sink `what` at pos.
	evSink
	// evStore: key receives wire data outright (a JSON decode target).
	evStore
	// evAssign: key is assigned terms; a compound assignment (+=) also
	// keeps what key held. Without terms the value is clean.
	evAssign
	// evCallArg: terms are argument arg of module function callee, at
	// pos; key is the variable the callee may write through (&v → v).
	evCallArg
)

// A taintEvent is one effect of one CFG node, with everything either
// consumer needs and no AST left in it.
type taintEvent struct {
	kind     taintEventKind
	key      string
	terms    []taintTerm
	compound bool
	pos      token.Pos
	what     string
	callee   *FuncInfo
	arg      int
}

// taintLowerer lowers the CFG nodes of one function body to events,
// appended to evs.
type taintLowerer struct {
	info *types.Info
	mod  *Module
	cfg  *CFG
	// fn is the declared function when lowering for its summary, where
	// returns and stores through parameters are facts about it; nil for
	// the reporter, which has no use for them.
	fn *FuncInfo
	// sources: the package handles wire input, so direct reads and JSON
	// decodes in it are untrusted (always, for the reporter).
	sources bool
	evs     []taintEvent
}

func (l *taintLowerer) sink(e ast.Expr, what string) {
	if terms := l.terms(e); len(terms) > 0 {
		l.evs = append(l.evs, taintEvent{kind: evSink, terms: terms, pos: e.Pos(), what: what})
	}
}

func (l *taintLowerer) guard(keys []string) {
	for _, k := range keys {
		l.evs = append(l.evs, taintEvent{kind: evGuard, key: k})
	}
}

// assign emits key ← rhs; a nil rhs is a clean value.
func (l *taintLowerer) assign(key string, rhs ast.Expr, compound bool) {
	if key == "" || key == "_" {
		return
	}
	ev := taintEvent{kind: evAssign, key: key, compound: compound}
	if rhs != nil {
		ev.terms = l.terms(rhs)
	}
	l.evs = append(l.evs, ev)
}

// lower appends the events of one shallow CFG node, in the order the
// reporter must apply them: guard sanitization first (`n < len(b) &&
// b[n]` guards before it indexes), then sinks and call effects in
// evaluation order, then definitions — the right-hand side was evaluated
// under the state before them.
func (l *taintLowerer) lower(n ast.Node) {
	if e, ok := n.(ast.Expr); ok {
		switch l.cfg.Conds[e] {
		case token.IF:
			l.guard(comparisonKeys(e))
		case token.FOR:
			l.sink(e, "a loop bound")
		}
	}

	InspectShallow(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			l.call(m)
		case *ast.IndexExpr:
			if indexableSink(l.info, m) {
				l.sink(m.Index, "an index")
			}
		case *ast.SliceExpr:
			for _, bound := range []ast.Expr{m.Low, m.High, m.Max} {
				if bound != nil {
					l.sink(bound, "a slice bound")
				}
			}
		}
		return true
	})

	as, _ := n.(*ast.AssignStmt)
	compound := as != nil && as.Tok != token.ASSIGN && as.Tok != token.DEFINE
	eachAssign(n, func(lhs, rhs ast.Expr) {
		l.assign(exprKey(lhs), rhs, compound)
		if l.fn != nil {
			if pi := paramStoreIndex(l.fn, lhs); pi >= 0 {
				l.assign(taintParamKey(pi), rhs, false)
			}
		}
	})
	switch n := n.(type) {
	case *ast.RangeStmt:
		// A range key over a slice/array/string is an index the runtime
		// bounds for us; only the element values carry the taint. Map
		// range keys are attacker content like the values.
		keyBounded := rangeKeyBounded(l.info, n.X)
		for _, v := range []ast.Expr{n.Key, n.Value} {
			if id, ok := v.(*ast.Ident); ok {
				if v == n.Key && keyBounded {
					l.assign(id.Name, nil, false)
				} else {
					l.assign(id.Name, n.X, false)
				}
			}
		}
	case *ast.ReturnStmt:
		if l.fn == nil {
			break
		}
		for _, res := range n.Results {
			l.assign(taintRetKey, res, false)
		}
		if len(n.Results) == 0 && l.fn.Decl.Type.Results != nil {
			// A bare return returns the named results.
			for _, field := range l.fn.Decl.Type.Results.List {
				for _, name := range field.Names {
					l.assign(taintRetKey, name, false)
				}
			}
		}
	}
}

// call lowers one call expression: make sizes and io read limits are
// sinks, a JSON decode stores wire data through its target, a
// //lint:sanitized helper guards its arguments, and any other module
// function gets one evCallArg per argument for its summary to judge.
func (l *taintLowerer) call(call *ast.CallExpr) {
	if isBuiltinCall(l.info, call, "make") {
		for _, arg := range call.Args[1:] {
			l.sink(arg, "a make size")
		}
		return
	}
	callee, _ := staticCallee(l.info, call)
	if i := ioLimitArg(callee); i >= 0 && i < len(call.Args) {
		l.sink(call.Args[i], "an io read limit")
	}
	if i := jsonDecodeArg(callee); l.sources && i >= 0 && i < len(call.Args) {
		if k := addrKey(call.Args[i]); k != "" {
			l.evs = append(l.evs, taintEvent{kind: evStore, key: k})
		}
	}
	cfi := l.mod.FuncOf(callee)
	if cfi == nil {
		return
	}
	for i, arg := range call.Args {
		if cfi.Sanitized {
			l.guard(exprKeys(arg))
		} else {
			l.evs = append(l.evs, taintEvent{kind: evCallArg, key: addrKey(arg), terms: l.terms(arg), pos: arg.Pos(), callee: cfi, arg: i})
		}
	}
}

// terms returns the pieces of e that can carry wire data, in evaluation
// order. A variable chain decides for the whole chain (descending
// further would find a tainted parent under a sanitized child). A
// resolved call contributes its result taint, by its summary, never its
// arguments' taint; a dynamic call contributes nothing; conversions and
// builtins let taint through — except make and new, whose results are
// fresh memory (a tainted size is reported at the sink instead).
func (l *taintLowerer) terms(e ast.Expr) []taintTerm {
	var out []taintTerm
	seen := map[string]bool{}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if x, ok := n.(ast.Expr); ok {
			if k := exprKey(x); k != "" {
				if !seen[k] {
					seen[k] = true
					out = append(out, taintTerm{key: k})
				}
				return false
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isBuiltinCall(l.info, call, "make") || isBuiltinCall(l.info, call, "new") {
			return false
		}
		if isTaintSourceCall(l.info, call) {
			if l.sources {
				out = append(out, taintTerm{})
			}
			return false
		}
		callee, dynamic := staticCallee(l.info, call)
		if callee != nil {
			if cfi := l.mod.FuncOf(callee); cfi != nil && !cfi.Sanitized {
				out = append(out, taintTerm{callee: cfi})
			}
			return false
		}
		return !dynamic
	})
	return out
}

// taintLocal is the AST-free view of one declared function that the
// module-wide fixed point re-evaluates each round.
type taintLocal struct {
	events []taintEvent
	// params holds the parameter name keys by index ("" if unnamed).
	params []string
}

// taintDirect lowers fi's body. Called from BuildModule after every
// FuncInfo exists, so //lint:sanitized callees resolve immediately.
func taintDirect(fi *FuncInfo, mod *Module) {
	tl := &taintLocal{}
	fi.taint = tl
	for _, name := range fi.params() {
		key := ""
		if name != nil {
			key = name.Name
		}
		tl.params = append(tl.params, key)
	}
	fi.Summary.TaintsParams = make([]bool, len(tl.params))
	fi.Summary.TaintSinkParams = make([]bool, len(tl.params))

	cfg := BuildCFG(fi.Decl.Body)
	l := &taintLowerer{info: fi.Pkg.Info, mod: mod, cfg: cfg, fn: fi, sources: inScope("wiretaint", fi.Pkg)}
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			l.lower(n)
		}
	}
	tl.events = l.evs
}

// propagateTaint runs the taint facts to a fixed point over the call
// graph. Every fact is monotone (false → true only) and the events are
// precomputed, so each round is pure data flow.
func propagateTaint(mod *Module) {
	for changed := true; changed; {
		changed = false
		for _, fi := range mod.Funcs {
			if taintEval(fi) {
				changed = true
			}
		}
	}
}

// flagAt is bs[i], false out of range (variadic calls pass more
// arguments than the callee declares parameters).
func flagAt(bs []bool, i int) bool { return i < len(bs) && bs[i] }

// close is the flow-insensitive solve: one state for the whole body, in
// which a key guarded anywhere is clean everywhere and every key in
// seeds is tainted; assignments then taint their unmarked targets to a
// fixed point. With keysOnly, only variables carry taint (what derives
// from a parameter), not callee results or direct reads.
func (tl *taintLocal) close(seeds []string, keysOnly bool) taintFlowState {
	st := taintFlowState{}
	for _, ev := range tl.events {
		if ev.kind == evGuard {
			st[ev.key] = markSanitized
		}
	}
	for _, k := range seeds {
		if k != "" && st[k] == 0 {
			st[k] = markTainted
		}
	}
	for again := true; again; {
		again = false
		for _, ev := range tl.events {
			if ev.kind == evAssign && st[ev.key] == 0 {
				if _, ok := st.witness(ev.terms, keysOnly); ok {
					st[ev.key] = markTainted
					again = true
				}
			}
		}
	}
	return st
}

// taintEval recomputes fi's taint facts from its events and the current
// callee summaries, reporting whether anything changed.
func taintEval(fi *FuncInfo) bool {
	if fi.Sanitized {
		return false
	}
	tl := fi.taint
	s := &fi.Summary

	// Seeds: direct stores and callees that write taint through an
	// argument we hand them.
	var seeds []string
	for _, ev := range tl.events {
		if ev.kind == evStore || ev.kind == evCallArg && flagAt(ev.callee.Summary.TaintsParams, ev.arg) {
			seeds = append(seeds, ev.key)
		}
	}
	st := tl.close(seeds, false)

	changed := orInto(&s.TaintsResults, st[taintRetKey] == markTainted)
	for i, pname := range tl.params {
		if !s.TaintsParams[i] {
			visible := st[taintParamKey(i)] == markTainted
			// A pointer parameter handed whole to a tainting callee, or
			// a tainted selector rooted at the parameter, is a
			// caller-visible store too.
			for k, m := range st {
				if m == markTainted && pname != "" && strings.HasPrefix(k, pname+".") {
					visible = true
				}
			}
			if !visible && pname != "" && st[pname] == markTainted && pointerParam(fi, i) {
				visible = true
			}
			if visible {
				s.TaintsParams[i] = true
				changed = true
			}
		}
		if !s.TaintSinkParams[i] && pname != "" && st[pname] != markSanitized && tl.paramReachesSink(pname) {
			s.TaintSinkParams[i] = true
			changed = true
		}
	}
	return changed
}

// paramReachesSink reports whether values derived from the named
// parameter reach a local sink or an unguarded sink parameter of a
// callee, never passing a guard on the way.
func (tl *taintLocal) paramReachesSink(pname string) bool {
	derived := tl.close([]string{pname}, true)
	for _, ev := range tl.events {
		if ev.kind == evSink || ev.kind == evCallArg && flagAt(ev.callee.Summary.TaintSinkParams, ev.arg) {
			if _, ok := derived.witness(ev.terms, true); ok {
				return true
			}
		}
	}
	return false
}

// exprKeys returns every distinct exprKey mentioned in e (outside
// nested function literals).
func exprKeys(e ast.Expr) []string {
	var keys []string
	seen := map[string]bool{}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if x, ok := n.(ast.Expr); ok {
			if k := exprKey(x); k != "" {
				if !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
				return false
			}
		}
		return true
	})
	return keys
}

// isTaintSourceCall matches the untrusted reads: fixed-width loads off
// a frame via encoding/binary byte orders, and strconv parses of query
// parameters.
func isTaintSourceCall(info *types.Info, call *ast.CallExpr) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Uint16", "Uint32", "Uint64":
			if isNamed(typeOf(info, sel.X), "encoding/binary") {
				return true
			}
		}
	}
	callee, _ := staticCallee(info, call)
	return calleeArg(callee, "strconv", map[string]int{"Atoi": 0, "ParseInt": 0, "ParseUint": 0, "ParseFloat": 0}) >= 0
}

// calleeArg looks a standard-library callee up in a name → argument
// index table of one package; -1 when it is not in it.
func calleeArg(callee *types.Func, pkgPath string, args map[string]int) int {
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != pkgPath {
		return -1
	}
	if i, ok := args[callee.Name()]; ok {
		return i
	}
	return -1
}

// jsonDecodeArg returns the argument index that an encoding/json decode
// writes through: json.Unmarshal(data, &v) → 1, dec.Decode(&v) → 0.
func jsonDecodeArg(callee *types.Func) int {
	return calleeArg(callee, "encoding/json", map[string]int{"Unmarshal": 1, "Decode": 0})
}

// ioLimitArg returns the index of the read-limit argument of an io
// limiting call, or -1.
func ioLimitArg(callee *types.Func) int {
	return calleeArg(callee, "io", map[string]int{"LimitReader": 1, "CopyN": 2})
}

// rangeKeyBounded reports whether ranging over x yields keys the
// runtime bounds (slice/array/string/integer indices), as opposed to a
// map whose keys are attacker content.
func rangeKeyBounded(info *types.Info, x ast.Expr) bool {
	t := typeOf(info, x)
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Map, *types.Chan:
		return false
	case *types.Basic:
		return u.Info()&(types.IsString|types.IsInteger) != 0
	}
	return true
}

// indexableSink reports whether the index expression indexes a
// length-bounded container (slice, array, string — not a map, whose
// lookups cannot panic on range) with a value, not a type parameter.
func indexableSink(info *types.Info, n *ast.IndexExpr) bool {
	tv, ok := info.Types[n.X]
	if !ok || tv.IsType() || tv.Type == nil {
		return false
	}
	switch u := tv.Type.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	case *types.Pointer:
		_, ok := u.Elem().Underlying().(*types.Array)
		return ok
	case *types.Basic:
		return u.Info()&types.IsString != 0
	}
	return false
}

// comparisonKeys collects every key mentioned bare in a comparison
// inside cond: under conversions, arithmetic, unary operators, len/cap
// and other call arguments — but never from an index or slice-bound
// position (`a[i] == 0` bounds nothing about i).
func comparisonKeys(cond ast.Expr) []string {
	var keys []string
	ast.Inspect(cond, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if be, ok := n.(*ast.BinaryExpr); ok {
			switch be.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
				keys = bareKeys(be.Y, bareKeys(be.X, keys))
			}
		}
		return true
	})
	return keys
}

// bareKeys walks one comparison operand, appending ident and selector
// keys but skipping index/slice-bound subtrees: appearing as an index
// inside a comparison is not a bounds check on the index.
func bareKeys(e ast.Expr, keys []string) []string {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return bareKeys(e.X, keys)
	case *ast.UnaryExpr:
		return bareKeys(e.X, keys)
	case *ast.StarExpr:
		return bareKeys(e.X, keys)
	case *ast.BinaryExpr:
		return bareKeys(e.Y, bareKeys(e.X, keys))
	case *ast.CallExpr:
		for _, a := range e.Args {
			keys = bareKeys(a, keys)
		}
	case *ast.IndexExpr:
		return bareKeys(e.X, keys)
	case *ast.SliceExpr:
		return bareKeys(e.X, keys)
	case *ast.TypeAssertExpr:
		return bareKeys(e.X, keys)
	case *ast.SelectorExpr, *ast.Ident:
		if k := exprKey(e); k != "" {
			keys = append(keys, k)
		}
	}
	return keys
}

// addrKey returns the exprKey of an argument with a leading & stripped
// — the variable a callee writes through when it taints the parameter.
func addrKey(arg ast.Expr) string {
	arg = ast.Unparen(arg)
	if ue, ok := arg.(*ast.UnaryExpr); ok && ue.Op == token.AND {
		arg = ue.X
	}
	return exprKey(arg)
}

// paramStoreIndex returns the parameter index when lhs writes through a
// parameter (a field selector, dereference, or element — not a plain
// rebinding of the parameter name), else -1.
func paramStoreIndex(fi *FuncInfo, lhs ast.Expr) int {
	switch lhs.(type) {
	case *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		return fi.paramIndex(chainRoot(lhs))
	}
	return -1
}

// pointerParam reports whether writes through fi's i-th parameter are
// visible to the caller.
func pointerParam(fi *FuncInfo, i int) bool {
	sig := fi.Obj.Type().(*types.Signature)
	if i >= sig.Params().Len() {
		return false
	}
	switch sig.Params().At(i).Type().Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}
