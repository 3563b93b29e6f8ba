package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// lifetime.go is the resource-lifetime engine behind three rules. A
// pooled object (an engine scratch, a wire.Buf, a shard request scratch,
// a router gather or reply) and a mutex side are the same kind of thing
// to a path-sensitive check: a resource that a function acquires, holds
// and releases. Per function body (function literals are functions of
// their own, as the worker-pool closures that each own a scratch are)
// the engine discovers every tracked resource in one walk, builds one
// CFG, lowers each block to the acquire/release/use events of each
// resource once, solves the may-set lattice below with the shared solver
// (dataflow.go), and replays the events against the converged facts to
// emit every verdict under the rule that owns it:
//
//   - poolbalance: a pooled object still held on a path into the exit.
//     The pool just allocates a fresh one, so a leak is silent: steady-
//     state performance decays without any test failing.
//   - poolescape: a pooled object mentioned after a release on some path
//     (use after Put), released while it may already be released (double
//     Put), or retained past the function's own release — stored into a
//     field, sent on a channel, appended into caller-visible storage,
//     captured by a goroutine, or returned by reference under a deferred
//     release. Another goroutine may have the object checked out again;
//     no byte-identity test catches that, it only shows under pool churn.
//   - lockbalance: a mutex side still held on a path into the exit,
//     locked again while held on every path (self-deadlock), or unlocked
//     where it cannot be held. A forgotten unlock on one early-return
//     path of the cache stripes or the router's connection pool wedges
//     the whole server.
//
// Acquires and releases are seen through helpers by the interprocedural
// summaries (summary.go): a call whose summary says it returns a fresh
// pooled object acquires, and passing the object in a position the
// callee's summary releases is a release, any number of hops deep. A
// deferred release covers every exit. A function that never releases a
// pooled object transfers ownership: that is a leak for poolbalance to
// report (or a helper whose `return e.getScratch()` the summaries know),
// and nothing for poolescape.
//
// A mutex is tracked per rendered receiver ("d.mu", "c.stripes[i].mu")
// and per side: RLock/RUnlock pair independently of Lock/Unlock, so one
// RWMutex is two resources. Distinct keys are assumed to be distinct
// mutexes. A side some TryLock touches is not tracked: whether it is held
// becomes a data question the CFG cannot answer.

// The three rules the engine reports under.
const (
	rulePoolBalance = "poolbalance"
	rulePoolEscape  = "poolescape"
	ruleLockBalance = "lockbalance"
)

var PoolBalance = &Analyzer{
	Name: rulePoolBalance,
	Doc: "every getScratch()/pool.Get() must have a matching putScratch()/pool.Put() " +
		"on all return paths (defer it, or release before each return)",
	Run: runLifetime,
}

var PoolEscape = &Analyzer{
	Name: rulePoolEscape,
	Doc: "a pooled object must not be used or retained after its Put: no " +
		"use-after-release on any path, no double Put, no escaping aliases",
	Run: runLifetime,
}

var LockBalance = &Analyzer{
	Name: ruleLockBalance,
	Doc: "every mu.Lock() must be paired with mu.Unlock() on all control-flow paths " +
		"(defer it, or unlock before each exit), and a held mutex must not be re-locked",
	Run: runLifetime,
}

// runLifetime reports the engine's verdicts for the pass's rule. The
// engine runs once per package, whichever of the three rules asks first.
func runLifetime(pass *Pass) error {
	for _, v := range pass.Mod.lifetime(pass.Pkg) {
		if v.rule == pass.Analyzer.Name {
			pass.Reportf(v.pos, "%s", v.msg)
		}
	}
	return nil
}

// lifetime returns the lifetime verdicts of one package, computed on
// first use.
func (m *Module) lifetime(pkg *Package) []ltVerdict {
	m.ltMu.Lock()
	defer m.ltMu.Unlock()
	vs, done := m.lt[pkg]
	if !done {
		eachFunc(pkg, func(_ *ast.FuncType, body *ast.BlockStmt) {
			vs = checkLifetimes(pkg, m, body, vs)
		})
		m.lt[pkg] = vs
	}
	return vs
}

// ltVerdict is one finding of the engine, under the rule that owns it.
type ltVerdict struct {
	rule string
	pos  token.Pos
	msg  string
}

// ltState is the set of lifetime phases a resource may be in at a
// program point; the join of two paths is their union. Held on every
// path is the singleton ltHeld, "cannot be held" any set without it, and
// "may already be released" any set with ltReleased — which a variable
// merely declared, not yet acquired, is not.
type ltState uint8

const (
	ltUnacquired ltState = 1 << iota
	ltHeld
	ltReleased
)

func joinLt(cur, out ltState) (ltState, bool) { return cur | out, cur|out != cur }

// ltOp is what one CFG node does to one resource.
type ltOp uint8

const (
	ltAcquire ltOp = iota
	ltRelease
	ltUse
)

// ltEvent is one operation on one resource, at the position a verdict
// about it is reported.
type ltEvent struct {
	res *resource
	op  ltOp
	pos token.Pos
}

// resource is one tracked pooled object or mutex side of a function.
type resource struct {
	// obj is the variable a pooled object is first acquired into, nil
	// for a mutex; aliases is obj plus every variable directly copied
	// from it (flow-insensitively, so a may-alias set).
	obj     types.Object
	aliases map[types.Object]bool
	// key and shared identify a mutex side ("s.mu", the read side).
	key    string
	shared bool
	// first is the acquire statement or the first Lock call, where a
	// leak is reported.
	first token.Pos
	// deferred: a deferred release covers every exit.
	deferred bool
	// released: the function releases the resource somewhere.
	released bool
	// tryLocked: some TryLock touches this mutex side.
	tryLocked bool
}

// method renders a mutex side's Lock or Unlock method name.
func (r *resource) method(op ltOp) string {
	name := "Lock"
	if op == ltRelease {
		name = "Unlock"
	}
	if r.shared {
		name = "R" + name
	}
	return name
}

// ltFunc is the engine's state for one function body.
type ltFunc struct {
	pkg  *Package
	info *types.Info
	mod  *Module
	body *ast.BlockStmt
	// pools and mutexes are the tracked resources in discovery order.
	pools   []*resource
	mutexes []*resource
	sides   map[ltSide]*resource
	// copies are the plain variable-to-variable assignments of the body.
	copies []ltCopy
	out    []ltVerdict
}

type ltCopy struct{ dst, src types.Object }

// ltSide identifies one side of one mutex: its rendered receiver and
// whether it is the RWMutex read side.
type ltSide struct {
	key    string
	shared bool
}

func (f *ltFunc) reportf(rule string, pos token.Pos, format string, args ...any) {
	f.out = append(f.out, ltVerdict{rule, pos, fmt.Sprintf(format, args...)})
}

// checkLifetimes runs the engine over one function body and appends its
// verdicts to out.
func checkLifetimes(pkg *Package, mod *Module, body *ast.BlockStmt, out []ltVerdict) []ltVerdict {
	f := &ltFunc{pkg: pkg, info: pkg.Info, mod: mod, body: body, out: out}
	f.discover()
	if len(f.pools)+len(f.mutexes) == 0 {
		return out
	}
	cfg := BuildCFG(body)
	for _, r := range f.pools {
		f.collectAliases(r)
	}

	// Deferred releases run at every exit: they cover the leak check and
	// stay out of the flow.
	for _, ds := range cfg.Defers {
		if r, op := f.mutexCall(ds.Call); r != nil && op == ltRelease {
			r.deferred = true
		}
		// The deferred call may sit inside a closure: defer func(){...}().
		ast.Inspect(ds, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				for _, r := range f.releasedBy(call) {
					r.deferred, r.released = true, true
				}
			}
			return true
		})
	}

	// Lower every block to its events once; unreachable blocks too, so
	// that "releases somewhere" sees the whole body.
	events := make([][]ltEvent, len(cfg.Blocks))
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.DeferStmt); !ok {
				events[b.Index] = f.lower(n, events[b.Index])
			}
		}
	}

	for _, r := range slices.Concat(f.pools, f.mutexes) {
		if r.obj != nil && r.released {
			f.checkEscapes(r)
		}
		run := func(b *CFGBlock, st ltState, report bool) ltState {
			for _, ev := range events[b.Index] {
				if ev.res == r {
					st = f.step(ev, st, report)
				}
			}
			return st
		}
		in := ForwardFlow(cfg, ltUnacquired, joinLt, func(b *CFGBlock, st ltState) ltState { return run(b, st, false) })
		EachReached(cfg, in, func(b *CFGBlock, st ltState) { run(b, st, true) })
		if r.deferred {
			continue
		}
		// The resource must not be held on any path into the exit.
		reported := map[int]bool{}
		for _, pred := range cfg.Exit.Preds {
			st, reachable := in[pred]
			if !reachable || run(pred, st, false)&ltHeld == 0 {
				continue
			}
			line := pkg.Fset.Position(cfg.ExitPos(pred)).Line
			if reported[line] {
				continue
			}
			reported[line] = true
			if r.obj != nil {
				f.reportf(rulePoolBalance, r.first,
					"%s acquired here is not released on the exit path at line %d; defer the release or release before returning",
					r.obj.Name(), line)
			} else {
				f.reportf(ruleLockBalance, r.first,
					"%s.%s() here is not matched by %s() on the exit path at line %d; defer the unlock or unlock before returning",
					r.key, r.method(ltAcquire), r.method(ltRelease), line)
			}
		}
	}
	return f.out
}

// step applies one event to its resource's state and, when reporting,
// judges the operation by the state before it.
func (f *ltFunc) step(ev ltEvent, st ltState, report bool) ltState {
	r := ev.res
	switch ev.op {
	case ltAcquire:
		if report && r.obj == nil && st == ltHeld {
			f.reportf(ruleLockBalance, ev.pos, "%s.%s() while %s is already held on every path here; this self-deadlocks",
				r.key, r.method(ltAcquire), r.key)
		}
		return ltHeld
	case ltRelease:
		switch {
		case !report:
		case r.obj != nil && st&ltReleased != 0:
			f.reportf(rulePoolEscape, ev.pos,
				"%s may already be released on this path; double Put returns the same object to the pool twice", r.obj.Name())
		case r.obj == nil && st&ltHeld == 0 && !r.deferred:
			f.reportf(ruleLockBalance, ev.pos, "%s.%s() but %s cannot be held here; double unlock panics at runtime",
				r.key, r.method(ltRelease), r.key)
		}
		return ltReleased
	}
	if report && st&ltReleased != 0 {
		f.reportf(rulePoolEscape, ev.pos, "pooled %s is used on a path where it was already released (use after Put)", r.obj.Name())
	}
	return st
}

// discover finds the resources the function tracks: every variable a
// pooled object is acquired into (`s := e.getScratch()`; re-acquires
// into the same variable are the flow's business) and every mutex side
// it locks.
func (f *ltFunc) discover() {
	f.sides = map[ltSide]*resource{}
	var order []*resource
	seen := map[types.Object]bool{}
	sameFuncInspect(f.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if obj := f.acquiredVar(n); obj != nil && !seen[obj] {
				seen[obj] = true
				f.pools = append(f.pools, &resource{obj: obj, first: n.Pos()})
			}
			for i, rhs := range n.Rhs {
				if len(n.Lhs) != len(n.Rhs) {
					break
				}
				src, isVar := ast.Unparen(rhs).(*ast.Ident)
				dst, toVar := ast.Unparen(n.Lhs[i]).(*ast.Ident)
				if isVar && toVar && assignee(f.info, dst) != nil {
					f.copies = append(f.copies, ltCopy{assignee(f.info, dst), f.info.Uses[src]})
				}
			}
		case *ast.CallExpr:
			key, m, ok := mutexOp(f.info, n)
			if !ok {
				return true
			}
			r := f.sides[ltSide{key, m.shared}]
			if r == nil {
				r = &resource{key: key, shared: m.shared}
				f.sides[ltSide{key, m.shared}] = r
			}
			switch {
			case m.try:
				r.tryLocked = true
			case m.op == ltAcquire && !r.first.IsValid():
				r.first = n.Pos()
				order = append(order, r)
			}
		}
		return true
	})
	// Only a side the function locks, and never try-locks, is tracked.
	for _, r := range order {
		if !r.tryLocked {
			f.mutexes = append(f.mutexes, r)
		}
	}
	for id, r := range f.sides {
		if !slices.Contains(f.mutexes, r) {
			delete(f.sides, id)
		}
	}
}

// lower appends the events of one CFG node: mutex operations in
// evaluation order, and for each pooled object the one thing the node
// does to it — a release, else a fresh acquire into it, else a mention.
func (f *ltFunc) lower(n ast.Node, evs []ltEvent) []ltEvent {
	var released []*resource
	InspectShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if r, op := f.mutexCall(call); r != nil {
			evs = append(evs, ltEvent{r, op, call.Pos()})
		}
		for _, r := range f.releasedBy(call) {
			if !slices.Contains(released, r) {
				released = append(released, r)
				r.released = true
				evs = append(evs, ltEvent{r, ltRelease, n.Pos()})
			}
		}
		return true
	})
	for _, r := range f.pools {
		if slices.Contains(released, r) {
			continue
		}
		if as, ok := n.(*ast.AssignStmt); ok && r.aliases[f.acquiredVar(as)] {
			evs = append(evs, ltEvent{r, ltAcquire, n.Pos()})
		} else if f.mentions(n, r) {
			evs = append(evs, ltEvent{r, ltUse, n.Pos()})
		}
	}
	return evs
}

// mutexCall matches a Lock or Unlock on a tracked mutex side.
func (f *ltFunc) mutexCall(call *ast.CallExpr) (*resource, ltOp) {
	key, m, ok := mutexOp(f.info, call)
	if r := f.sides[ltSide{key, m.shared}]; ok && r != nil {
		return r, m.op
	}
	return nil, 0
}

// mutexMethod describes one sync.Mutex/RWMutex method.
type mutexMethod struct {
	op     ltOp
	shared bool // the RWMutex read side
	try    bool
}

var mutexMethods = map[string]mutexMethod{
	"Lock":     {op: ltAcquire},
	"Unlock":   {op: ltRelease},
	"TryLock":  {op: ltAcquire, try: true},
	"RLock":    {op: ltAcquire, shared: true},
	"RUnlock":  {op: ltRelease, shared: true},
	"TryRLock": {op: ltAcquire, shared: true, try: true},
}

// mutexOp matches a niladic lock-method call on a sync.Mutex/RWMutex
// receiver (possibly behind a pointer) and returns the receiver's key —
// index expressions render too, so the cache's lock stripes
// ("c.stripes[i].mu") get one — and the method. An unrenderable receiver
// is not tracked.
func mutexOp(info *types.Info, call *ast.CallExpr) (key string, m mutexMethod, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return "", m, false
	}
	m, ok = mutexMethods[sel.Sel.Name]
	if !ok || !isNamed(deref(typeOf(info, sel.X)), "sync", "Mutex", "RWMutex") {
		return "", m, false
	}
	key = renderKey(sel.X, true)
	return key, m, key != ""
}

// acquiredVar returns the variable a `x := <acquire>` assignment binds a
// fresh pooled object to, or nil.
func (f *ltFunc) acquiredVar(as *ast.AssignStmt) types.Object {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 || !acquireExpr(f.info, f.mod, as.Rhs[0]) {
		return nil
	}
	if id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident); ok {
		return assignee(f.info, id)
	}
	return nil
}

// callUnderAssert returns the call e denotes, looking through parens and
// the assertion form pool.Get().(*scratch).
func callUnderAssert(e ast.Expr) *ast.CallExpr {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, _ := e.(*ast.CallExpr)
	return call
}

// acquireExpr reports whether e yields a freshly acquired pooled
// object: e.getScratch(), pool.Get() (optionally type-asserted), or a
// statically resolved call to a module function whose summary transfers
// a fresh one to its caller.
func acquireExpr(info *types.Info, mod *Module, e ast.Expr) bool {
	call := callUnderAssert(e)
	if call == nil {
		return false
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "getScratch":
			return true
		case "Get":
			if isPoolExpr(info, sel.X) {
				return true
			}
		}
	}
	callee, _ := staticCallee(info, call)
	fi := mod.FuncOf(callee)
	return fi != nil && fi.Summary.AcquiresScratch
}

// releasedArgs returns the arguments the call hands back to a pool: the
// one of e.putScratch(s) / pool.Put(s), or those in the positions a
// statically resolved helper's summary releases.
func releasedArgs(info *types.Info, mod *Module, call *ast.CallExpr) []ast.Expr {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && len(call.Args) == 1 {
		if sel.Sel.Name == "putScratch" || (sel.Sel.Name == "Put" && isPoolExpr(info, sel.X)) {
			return call.Args
		}
	}
	callee, _ := staticCallee(info, call)
	fi := mod.FuncOf(callee)
	if fi == nil {
		return nil
	}
	var out []ast.Expr
	for i, arg := range call.Args {
		if i < len(fi.Summary.ReleasesParams) && fi.Summary.ReleasesParams[i] {
			out = append(out, arg)
		}
	}
	return out
}

// isPoolExpr reports whether e denotes a sync.Pool (by type when known,
// by the conventional field name "pool" otherwise).
func isPoolExpr(info *types.Info, e ast.Expr) bool {
	if isNamed(deref(typeOf(info, e)), "sync", "Pool") {
		return true
	}
	key := exprKey(e)
	return key == "pool" || strings.HasSuffix(key, ".pool")
}

// releasedBy returns the pooled objects the call hands back to a pool,
// directly or through an alias.
func (f *ltFunc) releasedBy(call *ast.CallExpr) []*resource {
	var out []*resource
	for _, arg := range releasedArgs(f.info, f.mod, call) {
		for _, r := range f.pools {
			if f.mentions(arg, r) && !slices.Contains(out, r) {
				out = append(out, r)
			}
		}
	}
	return out
}

// mentions reports whether the node references the pooled object or an
// alias. A range header's node is the whole statement; its body belongs
// to other blocks.
func (f *ltFunc) mentions(n ast.Node, r *resource) bool {
	if rs, ok := n.(*ast.RangeStmt); ok {
		for _, e := range []ast.Expr{rs.Key, rs.Value, rs.X} {
			if e != nil && f.mentions(e, r) {
				return true
			}
		}
		return false
	}
	return usesAny(f.info, n, func(o types.Object) bool { return r.aliases[o] })
}

// collectAliases closes the direct-copy relation x := s / x = s (the
// copies discover found) from the resource's variable.
func (f *ltFunc) collectAliases(r *resource) {
	r.aliases = map[types.Object]bool{r.obj: true}
	for changed := true; changed; {
		changed = false
		for _, c := range f.copies {
			if r.aliases[c.src] && !r.aliases[c.dst] {
				r.aliases[c.dst] = true
				changed = true
			}
		}
	}
}

// aliasRooted reports whether expr denotes the pooled object or memory
// reached through it: an alias, or an access path rooted at one.
func (f *ltFunc) aliasRooted(expr ast.Expr, r *resource) bool {
	id, ok := chainRoot(expr).(*ast.Ident)
	return ok && r.aliases[f.info.Uses[id]]
}

// checkEscapes reports aliases that outlive the function's own release
// of a pooled object. Structural, not path-sensitive: retention is a bug
// wherever on the way to the release it happens.
func (f *ltFunc) checkEscapes(r *resource) {
	name := r.obj.Name()
	sameFuncInspect(f.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if f.mentions(n, r) {
				f.reportf(rulePoolEscape, n.Pos(),
					"pooled %s is captured by a goroutine but released by this function; the goroutine may use it after Put", name)
			}
		case *ast.SendStmt:
			if f.aliasRooted(n.Value, r) {
				f.reportf(rulePoolEscape, n.Pos(), "pooled %s escapes through a channel send but is released by this function", name)
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if len(n.Lhs) != len(n.Rhs) || !f.aliasRooted(rhs, r) {
					continue
				}
				lhs := ast.Unparen(n.Lhs[i])
				if _, plain := lhs.(*ast.Ident); plain || f.aliasRooted(lhs, r) {
					continue // local alias copy / internal mutation
				}
				f.reportf(rulePoolEscape, n.Pos(),
					"pooled %s is stored into %s but released by this function; the stored alias outlives the Put", name, describeLhs(lhs))
			}
		case *ast.ReturnStmt:
			if !r.deferred {
				return true // release-then-return paths are use-after-Put's business
			}
			for _, res := range n.Results {
				if f.aliasRooted(res, r) && referenceTyped(f.info, res) {
					f.reportf(rulePoolEscape, n.Pos(), "pooled %s (or memory it owns) is returned while a deferred release repools it", name)
				}
			}
		case *ast.CallExpr:
			f.checkCallEscape(n, r)
		}
		return true
	})
}

// checkCallEscape flags an alias retained through a call: appended into
// caller-visible storage, or captured by a closure handed to a
// goroutine-spawning helper (the fanout/hedged shape).
func (f *ltFunc) checkCallEscape(call *ast.CallExpr, r *resource) {
	if isBuiltinCall(f.info, call, "append") && len(call.Args) > 1 {
		for _, arg := range call.Args[1:] {
			if f.aliasRooted(arg, r) {
				f.reportf(rulePoolEscape, arg.Pos(), "pooled %s is retained via append but released by this function", r.obj.Name())
			}
		}
	}
	callee, _ := staticCallee(f.info, call)
	cfi := f.mod.FuncOf(callee)
	if cfi == nil || !cfi.Summary.SpawnsGoroutine {
		return
	}
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok && f.mentions(lit.Body, r) {
			f.reportf(rulePoolEscape, call.Pos(),
				"pooled %s is captured by a closure passed to %s (which spawns goroutines) but released by this function", r.obj.Name(), cfi.Name())
		}
	}
}

// referenceTyped reports whether the expression's type shares memory
// when returned: pointers, slices, maps, channels, funcs, interfaces.
func referenceTyped(info *types.Info, e ast.Expr) bool {
	t := typeOf(info, e)
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// describeLhs renders a store target for diagnostics.
func describeLhs(lhs ast.Expr) string {
	if k := exprKey(lhs); k != "" {
		return k
	}
	switch lhs.(type) {
	case *ast.IndexExpr:
		return "an element store"
	case *ast.StarExpr:
		return "a pointer store"
	}
	return "a field store"
}
