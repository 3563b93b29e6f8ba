package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// cfg.go builds an intraprocedural control-flow graph over one function
// body. The CFG is the substrate for the dataflow analyzers (dataflow.go):
// poolbalance and lockbalance need "is this resource held on every path to
// this exit", ctxflow "may this context be underived here", and all of
// them need the loop/branch structure that lexical walks (the pre-CFG
// poolbalance) can only approximate.
//
// Design points:
//
//   - Blocks hold "shallow" nodes: simple statements and guard
//     expressions. A composite statement contributes its header parts to
//     the enclosing blocks (an if contributes its Cond, a range its
//     RangeStmt header) while its body gets blocks of its own. Transfer
//     functions therefore walk block nodes with InspectShallow, which
//     never descends into nested bodies or function literals.
//   - There is a single synthetic Exit block. Every return statement and
//     the implicit fall-through at the closing brace edge into it; a
//     panic() terminates its block with no successors (an unwinding exit
//     does not owe the invariants the analyzers check, matching the
//     pre-CFG poolbalance behaviour).
//   - goto/labeled break/continue/fallthrough are resolved exactly; a
//     label that is only ever jumped to forward gets its block patched
//     when the label is reached.
//   - Unreachable code (after return/panic/branch) is still given blocks
//     so its nodes exist, but those blocks have no predecessors; the
//     solvers in dataflow.go start at Entry and simply never visit them.
type CFG struct {
	// Entry is where execution starts; Exit is the single synthetic block
	// every normal function exit edges into. Exit has no nodes.
	Entry *CFGBlock
	Exit  *CFGBlock
	// Blocks lists every block, including unreachable ones, in creation
	// order (Entry first). Block indices are positions in this slice.
	Blocks []*CFGBlock
	// Defers collects every defer statement of the function, in source
	// order. Deferred calls run at every exit, so pairing analyzers treat
	// them as covering all paths rather than as ordinary block nodes.
	Defers []*ast.DeferStmt
	// Conds records which bare expression nodes are branch conditions:
	// token.IF for an if statement's, token.FOR for a loop's.
	Conds map[ast.Expr]token.Token
	// rbrace is the function body's closing brace, the position reported
	// for the implicit fall-through exit.
	rbrace token.Pos
}

// A CFGBlock is one basic block: shallow nodes executed in order, then a
// transfer of control to one of Succs.
type CFGBlock struct {
	Index int
	Nodes []ast.Node
	Succs []*CFGBlock
	Preds []*CFGBlock
}

// ExitPos returns the position that best represents leaving the function
// through pred (a predecessor of Exit): the return statement when the
// block ends in one, otherwise the body's closing brace (the implicit
// fall-through).
func (c *CFG) ExitPos(pred *CFGBlock) token.Pos {
	for i := len(pred.Nodes) - 1; i >= 0; i-- {
		if r, ok := pred.Nodes[i].(*ast.ReturnStmt); ok {
			return r.Pos()
		}
	}
	return c.rbrace
}

// String renders the graph for tests and debugging: one line per block
// with its node kinds and successor indices.
func (c *CFG) String() string {
	var sb strings.Builder
	for _, b := range c.Blocks {
		fmt.Fprintf(&sb, "b%d:", b.Index)
		if b == c.Exit {
			sb.WriteString(" <exit>")
		}
		for _, n := range b.Nodes {
			fmt.Fprintf(&sb, " %s", strings.TrimPrefix(fmt.Sprintf("%T", n), "*ast."))
		}
		sb.WriteString(" ->")
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, " b%d", s.Index)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// InspectShallow walks the subtree of one CFG node but never descends
// into nested statement bodies or function literals: the bodies of a
// composite header node belong to other blocks, and a FuncLit is a
// different function entirely (eachFunc analyzes it separately).
func InspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m.(type) {
		case *ast.BlockStmt, *ast.FuncLit:
			return false
		case nil:
			return false
		}
		return fn(m)
	})
}

// BuildCFG constructs the control-flow graph of one function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{rbrace: body.Rbrace, Conds: map[ast.Expr]token.Token{}},
		labels: map[string]*CFGBlock{},
	}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	b.edge(b.cur, b.cfg.Exit) // implicit fall-through at the closing brace
	return b.cfg
}

// cfgBuilder holds the construction state: the current block (nil after a
// terminator — the next statement starts an unreachable block), the
// break/continue frame stack, goto label blocks, and the pending label of
// a LabeledStmt wrapping the next loop or switch.
type cfgBuilder struct {
	cfg *CFG
	cur *CFGBlock

	// frames is the stack of enclosing breakable/continuable constructs,
	// innermost last.
	frames []ctrlFrame
	// labels maps label names to their target blocks (created on first
	// mention, so forward gotos resolve).
	labels map[string]*CFGBlock
	// pendingLabel is set between a LabeledStmt and the loop/switch it
	// labels, so `break L` / `continue L` can find the right frame.
	pendingLabel string
	// fallTarget is the body block of the next switch clause, the target
	// of a fallthrough statement.
	fallTarget *CFGBlock
}

// ctrlFrame is one enclosing for/range/switch/select: where break (and,
// for loops, continue) transfers to.
type ctrlFrame struct {
	label      string
	breakTo    *CFGBlock
	continueTo *CFGBlock // nil for switch/select
}

func (b *cfgBuilder) newBlock() *CFGBlock {
	blk := &CFGBlock{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *CFGBlock) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// add appends a shallow node to the current block.
func (b *cfgBuilder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// takeLabel consumes the pending label (set when this construct is the
// direct statement of a LabeledStmt).
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// labelBlock returns (creating on demand) the block a label names.
func (b *cfgBuilder) labelBlock(name string) *CFGBlock {
	blk, ok := b.labels[name]
	if !ok {
		blk = b.newBlock()
		b.labels[name] = blk
	}
	return blk
}

// frameFor finds the innermost frame matching the branch: any frame for
// an unlabeled break, loop frames only for continue, and the labeled
// frame when a label is given. A miss (label on a plain block, broken
// code) returns nil and the branch is treated as terminating.
func (b *cfgBuilder) frameFor(tok token.Token, label string) *ctrlFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if label != "" && f.label != label {
			continue
		}
		if tok == token.CONTINUE && f.continueTo == nil {
			continue
		}
		return f
	}
	return nil
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	if b.cur == nil {
		// Unreachable code after a terminator still gets blocks (with no
		// predecessors) so every node exists somewhere.
		b.cur = b.newBlock()
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// The label's block is the jump target for gotos; execution also
		// falls into it.
		lb := b.labelBlock(s.Label.Name)
		b.edge(b.cur, lb)
		b.cur = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		b.cfg.Conds[s.Cond] = token.IF
		cond := b.cur
		then := b.newBlock()
		b.edge(cond, then)
		b.cur = then
		b.stmt(s.Body)
		thenEnd := b.cur
		join := b.newBlock()
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else)
			b.edge(b.cur, join)
		} else {
			b.edge(cond, join)
		}
		b.edge(thenEnd, join)
		b.cur = join

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
			b.cfg.Conds[s.Cond] = token.FOR
		}
		after := b.newBlock()
		// continue re-runs the post statement when there is one,
		// otherwise jumps straight back to the head.
		contTo := head
		var post *CFGBlock
		if s.Post != nil {
			post = b.newBlock()
			contTo = post
		}
		if s.Cond != nil {
			b.edge(head, after) // cond false
		}
		bodyBlk := b.newBlock()
		b.edge(head, bodyBlk)
		b.frames = append(b.frames, ctrlFrame{label: label, breakTo: after, continueTo: contTo})
		b.cur = bodyBlk
		b.stmt(s.Body)
		b.frames = b.frames[:len(b.frames)-1]
		if post != nil {
			b.edge(b.cur, post)
			b.cur = post
			b.stmt(s.Post)
			b.edge(b.cur, head)
		} else {
			b.edge(b.cur, head)
		}
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		b.edge(b.cur, head)
		// The whole RangeStmt is the head's node: its X and the per-
		// iteration Key/Value definitions live there. InspectShallow
		// keeps the body out.
		head.Nodes = append(head.Nodes, s)
		after := b.newBlock()
		b.edge(head, after) // range exhausted
		bodyBlk := b.newBlock()
		b.edge(head, bodyBlk)
		b.frames = append(b.frames, ctrlFrame{label: label, breakTo: after, continueTo: head})
		b.cur = bodyBlk
		b.stmt(s.Body)
		b.frames = b.frames[:len(b.frames)-1]
		b.edge(b.cur, head)
		b.cur = after

	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, nil, s.Body)

	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Assign, s.Body)

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.cur
		after := b.newBlock()
		b.frames = append(b.frames, ctrlFrame{label: label, breakTo: after})
		for _, cc := range s.Body.List {
			cc := cc.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(head, blk)
			if cc.Comm != nil {
				blk.Nodes = append(blk.Nodes, cc.Comm)
			}
			b.cur = blk
			b.stmtList(cc.Body)
			b.edge(b.cur, after)
		}
		b.frames = b.frames[:len(b.frames)-1]
		if len(s.Body.List) == 0 {
			// `select {}` blocks forever; after is unreachable.
			b.cur = nil
		}
		b.cur = after

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = nil

	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.GOTO:
			b.edge(b.cur, b.labelBlock(label))
		case token.FALLTHROUGH:
			b.edge(b.cur, b.fallTarget)
		default: // BREAK, CONTINUE
			if f := b.frameFor(s.Tok, label); f != nil {
				if s.Tok == token.CONTINUE {
					b.edge(b.cur, f.continueTo)
				} else {
					b.edge(b.cur, f.breakTo)
				}
			}
		}
		b.cur = nil

	case *ast.DeferStmt:
		b.cfg.Defers = append(b.cfg.Defers, s)
		b.add(s)

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			// panic unwinds: no successors, and the analyzers deliberately
			// do not hold panic exits to the pairing invariants.
			b.cur = nil
		}

	default:
		// Assign, IncDec, Send, Go, Decl, Empty, Bad: straight-line.
		b.add(s)
	}
}

// switchStmt builds both expression and type switches: the head holds the
// init/tag, every clause is a successor of the head, and fallthrough
// jumps to the next clause's body block.
func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt) {
	label := b.takeLabel()
	if init != nil {
		b.stmt(init)
	}
	if tag != nil {
		b.add(tag)
	}
	if assign != nil {
		b.add(assign)
	}
	head := b.cur
	after := b.newBlock()
	bodies := make([]*CFGBlock, len(body.List))
	for i := range body.List {
		bodies[i] = b.newBlock()
	}
	b.frames = append(b.frames, ctrlFrame{label: label, breakTo: after})
	savedFall := b.fallTarget
	hasDefault := false
	for i, cs := range body.List {
		cc := cs.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		blk := bodies[i]
		for _, e := range cc.List {
			blk.Nodes = append(blk.Nodes, e)
		}
		b.edge(head, blk)
		b.fallTarget = nil
		if i+1 < len(bodies) {
			b.fallTarget = bodies[i+1]
		}
		b.cur = blk
		b.stmtList(cc.Body)
		b.edge(b.cur, after)
	}
	b.fallTarget = savedFall
	b.frames = b.frames[:len(b.frames)-1]
	if !hasDefault {
		b.edge(head, after)
	}
	b.cur = after
}

// isPanicCall matches a direct call to the builtin panic.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
