package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// buildCFGFromSrc parses a function body (no type info needed) and
// builds its CFG.
func buildCFGFromSrc(t *testing.T, body string) *CFG {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fd := file.Decls[0].(*ast.FuncDecl)
	return BuildCFG(fd.Body)
}

// callBlock finds the block whose shallow nodes contain a call to name.
func callBlock(t *testing.T, cfg *CFG, name string) *CFGBlock {
	t.Helper()
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			found := false
			InspectShallow(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
						found = true
					}
				}
				return !found
			})
			if found {
				return b
			}
		}
	}
	t.Fatalf("no block calls %s in:\n%s", name, cfg)
	return nil
}

// canReach reports whether to is reachable from from along Succs.
func canReach(from, to *CFGBlock) bool {
	seen := map[*CFGBlock]bool{}
	stack := []*CFGBlock{from}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == to {
			return true
		}
		if seen[b] {
			continue
		}
		seen[b] = true
		stack = append(stack, b.Succs...)
	}
	return false
}

func TestCFGIfElse(t *testing.T) {
	cfg := buildCFGFromSrc(t, `
if c() {
	a()
} else {
	b()
}
d()
`)
	cond := callBlock(t, cfg, "c")
	if len(cond.Succs) != 2 {
		t.Fatalf("cond block has %d succs, want 2:\n%s", len(cond.Succs), cfg)
	}
	for _, name := range []string{"a", "b"} {
		br := callBlock(t, cfg, name)
		if !canReach(cond, br) || !canReach(br, callBlock(t, cfg, "d")) {
			t.Errorf("branch %s not wired through to the join:\n%s", name, cfg)
		}
	}
	if !canReach(cfg.Entry, cfg.Exit) {
		t.Errorf("exit unreachable:\n%s", cfg)
	}
}

// TestCFGLoopBreakRelease is the shape the old lexical poolbalance could
// not see: the resource is released only on the break path, yet every
// path out of the loop goes through the release. The lifetime lattice
// over the CFG must find post() released on every path and work() held.
func TestCFGLoopBreakRelease(t *testing.T) {
	cfg := buildCFGFromSrc(t, `
lock()
for {
	if done() {
		unlock()
		break
	}
	work()
}
post()
`)
	transfer := func(b *CFGBlock, in ltState) ltState {
		st := in
		for _, n := range b.Nodes {
			InspectShallow(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok {
						switch id.Name {
						case "lock":
							st = ltHeld
						case "unlock":
							st = ltReleased
						}
					}
				}
				return true
			})
		}
		return st
	}
	in := ForwardFlow(cfg, ltUnacquired, joinLt, transfer)

	if got := in[callBlock(t, cfg, "work")]; got != ltHeld {
		t.Errorf("work() runs with state %v, want held:\n%s", got, cfg)
	}
	if got := in[callBlock(t, cfg, "post")]; got != ltReleased {
		t.Errorf("post() runs with state %v, want released (unlock dominates the break):\n%s", got, cfg)
	}
	// The loop body must loop back: work's block reaches itself.
	work := callBlock(t, cfg, "work")
	if !canReach(work, work) {
		t.Errorf("no back edge through the loop body:\n%s", cfg)
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	cfg := buildCFGFromSrc(t, `
switch tag() {
case 1:
	a()
	fallthrough
case 2:
	b()
default:
	c()
}
d()
`)
	head := callBlock(t, cfg, "tag")
	if len(head.Succs) != 3 {
		// One successor per clause; the default clause means no direct
		// head→after edge.
		t.Errorf("switch head has %d succs, want 3:\n%s", len(head.Succs), cfg)
	}
	a, b := callBlock(t, cfg, "a"), callBlock(t, cfg, "b")
	direct := false
	for _, s := range a.Succs {
		if s == b {
			direct = true
		}
	}
	if !direct {
		t.Errorf("fallthrough edge a→b missing:\n%s", cfg)
	}
	after := callBlock(t, cfg, "d")
	for _, name := range []string{"b", "c"} {
		if !canReach(callBlock(t, cfg, name), after) {
			t.Errorf("case %s does not reach the statement after the switch:\n%s", name, cfg)
		}
	}
}

func TestCFGGotoBackEdge(t *testing.T) {
	cfg := buildCFGFromSrc(t, `
start()
loop:
	if more() {
		step()
		goto loop
	}
	done()
`)
	step, more := callBlock(t, cfg, "step"), callBlock(t, cfg, "more")
	if !canReach(step, more) {
		t.Errorf("goto loop back edge missing:\n%s", cfg)
	}
	if !canReach(cfg.Entry, callBlock(t, cfg, "done")) || !canReach(cfg.Entry, cfg.Exit) {
		t.Errorf("fall-out path broken:\n%s", cfg)
	}
}

func TestCFGDeferAndPanic(t *testing.T) {
	cfg := buildCFGFromSrc(t, `
defer cleanup()
if bad() {
	panic("boom")
}
ok()
`)
	if len(cfg.Defers) != 1 {
		t.Fatalf("got %d defers, want 1", len(cfg.Defers))
	}
	// The panic terminates its block: no successors, and in particular
	// no path from the panic to Exit.
	var panicBlock *CFGBlock
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			InspectShallow(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
						panicBlock = b
					}
				}
				return true
			})
		}
	}
	if panicBlock == nil {
		t.Fatalf("panic block not found:\n%s", cfg)
	}
	if len(panicBlock.Succs) != 0 {
		t.Errorf("panic block has successors %v:\n%s", panicBlock.Succs, cfg)
	}
	if !canReach(cfg.Entry, cfg.Exit) {
		t.Errorf("normal path to exit missing:\n%s", cfg)
	}
}

func TestCFGSelectLoop(t *testing.T) {
	cfg := buildCFGFromSrc(t, `
for {
	select {
	case v := <-recv():
		use(v)
	default:
		idle()
	}
}
`)
	// Neither arm returns; the infinite loop never reaches Exit. (The
	// block after the loop still exists and wires to Exit, but it has no
	// predecessors, so Exit stays unreachable from Entry.)
	if canReach(cfg.Entry, cfg.Exit) {
		t.Errorf("exit reachable through an unbroken for/select loop:\n%s", cfg)
	}
	idle := callBlock(t, cfg, "idle")
	use := callBlock(t, cfg, "use")
	if !canReach(idle, use) || !canReach(use, idle) {
		t.Errorf("select arms do not loop back:\n%s", cfg)
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	cfg := buildCFGFromSrc(t, `
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if stop() {
				break outer
			}
			inner()
		}
	}
after()
`)
	stop := callBlock(t, cfg, "stop")
	after := callBlock(t, cfg, "after")
	if !canReach(stop, after) {
		t.Errorf("labeled break does not reach the statement after the outer loop:\n%s", cfg)
	}
	if !canReach(callBlock(t, cfg, "inner"), stop) {
		t.Errorf("inner loop does not iterate:\n%s", cfg)
	}
}

func TestCFGExitPos(t *testing.T) {
	cfg := buildCFGFromSrc(t, `
if c() {
	return
}
tail()
`)
	// One exit pred ends in a ReturnStmt (ExitPos = the return's own
	// position), the other falls off the end (ExitPos = closing brace).
	var retPreds, fallPreds int
	for _, pred := range cfg.Exit.Preds {
		if cfg.ExitPos(pred) == cfg.rbrace {
			fallPreds++
		} else {
			retPreds++
		}
	}
	if retPreds != 1 || fallPreds != 1 {
		t.Errorf("got %d return preds and %d fall-through preds, want 1 and 1:\n%s", retPreds, fallPreds, cfg)
	}
}
