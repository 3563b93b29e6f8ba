package analysis

import (
	"go/ast"
	"go/types"
)

// dataflow.go holds what runs over a CFG (cfg.go): the one forward
// worklist solver every path-sensitive analyzer uses (the lifetime engine
// in lifetime.go, the wiretaint reporter, ctxflow's underived-context
// flow), the assignment pairing the taint and ctx analyses share, and the
// escape-to-goroutine fact (used by atomicfield to exempt unpublished
// values under construction).

// ForwardFlow solves a forward dataflow problem over the blocks of c
// reachable from Entry and returns each visited block's entry fact.
// transfer must not modify in and must return a state it does not share
// with in. join merges out into a successor's current fact cur (the zero
// S on the first visit) and reports whether the fact changed; it may
// update cur in place but must not keep a reference to out. Facts must
// only grow over a finite lattice or the worklist will not terminate.
func ForwardFlow[S any](c *CFG, entry S, join func(cur, out S) (S, bool), transfer func(b *CFGBlock, in S) S) map[*CFGBlock]S {
	in := map[*CFGBlock]S{c.Entry: entry}
	work := []*CFGBlock{c.Entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		out := transfer(b, in[b])
		for _, s := range b.Succs {
			cur, seen := in[s]
			next, changed := join(cur, out)
			if !seen || changed {
				in[s] = next
				work = append(work, s)
			}
		}
	}
	return in
}

// EachReached calls visit on every block the solver reached, in block
// order, with its converged entry fact: the reporting pass that follows
// a solve.
func EachReached[S any](c *CFG, in map[*CFGBlock]S, visit func(b *CFGBlock, st S)) {
	for _, b := range c.Blocks {
		if st, ok := in[b]; ok {
			visit(b, st)
		}
	}
}

// eachAssign calls fn for every target of an assignment or var
// declaration, with the right-hand side that position receives: its own
// when the counts match, the single call of a multi-value form (a, b :=
// f(x): both derive from the one call), nil for a declaration without a
// value.
func eachAssign(n ast.Node, fn func(lhs, rhs ast.Expr)) {
	paired := func(targets int, rhs []ast.Expr, i int) ast.Expr {
		switch {
		case targets == len(rhs):
			return rhs[i]
		case len(rhs) == 1:
			return rhs[0]
		}
		return nil
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			fn(ast.Unparen(lhs), paired(len(n.Lhs), n.Rhs, i))
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for i, name := range vs.Names {
					fn(name, paired(len(vs.Names), vs.Values, i))
				}
			}
		}
	}
}

// GoCaptured returns every object referenced from inside a goroutine
// spawned in body (the `go` call's arguments and, for function literals,
// the literal's body). Anything in the set may be accessed concurrently
// with the spawning function, so analyzers must not treat it as privately
// owned.
func GoCaptured(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	caps := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		ast.Inspect(gs.Call, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					caps[obj] = true
				}
			}
			return true
		})
		return true
	})
	return caps
}
