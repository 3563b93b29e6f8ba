package analysis

import (
	"go/ast"
	"go/types"
	"maps"
)

// dataflow.go holds what runs over a CFG (cfg.go): the one forward
// worklist solver every path-sensitive analyzer uses (the lifetime engine
// in lifetime.go, the wiretaint reporter, reaching definitions below),
// reaching definitions themselves (used by ctxflow to decide whether a
// context variable still derives from the caller's ctx), and the
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

// A Definition is one point where a variable receives a value: an
// assignment, a var declaration, a range clause, or (with Node nil) a
// function parameter. Rhs is the defining expression when the form has a
// one-to-one right-hand side, nil otherwise (parameters, ranges, x, y :=
// f() forms).
type Definition struct {
	Var  *types.Var
	Node ast.Node
	Rhs  ast.Expr
}

// A DefSet maps each variable to the set of definitions that may reach a
// program point.
type DefSet map[*types.Var]map[*Definition]bool

func (d DefSet) clone() DefSet {
	out := make(DefSet, len(d))
	for v, defs := range d {
		out[v] = maps.Clone(defs)
	}
	return out
}

// kill replaces v's reaching definitions with the single def.
func (d DefSet) kill(def *Definition) {
	d[def.Var] = map[*Definition]bool{def: true}
}

// merge unions src into d, reporting whether d grew.
func (d DefSet) merge(src DefSet) bool {
	changed := false
	for v, defs := range src {
		dst, ok := d[v]
		if !ok {
			dst = make(map[*Definition]bool, len(defs))
			d[v] = dst
		}
		for def := range defs {
			if !dst[def] {
				dst[def] = true
				changed = true
			}
		}
	}
	return changed
}

// ReachingDefs computes, for every block reachable from c's entry, which
// definitions of each variable may reach the block's start. params seed
// the entry fact with parameter definitions (Node nil). The returned all
// slice lists every definition discovered, in block/node order.
func ReachingDefs(c *CFG, info *types.Info, params []*types.Var) (entry map[*CFGBlock]DefSet, all []*Definition) {
	// Pre-compute each block's definitions in execution order.
	blockDefs := make(map[*CFGBlock][]*Definition, len(c.Blocks))
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			defs := nodeDefs(info, n)
			blockDefs[b] = append(blockDefs[b], defs...)
			all = append(all, defs...)
		}
	}

	seed := DefSet{}
	for _, p := range params {
		seed.kill(&Definition{Var: p})
	}

	entry = ForwardFlow(c, seed,
		func(cur, out DefSet) (DefSet, bool) {
			if cur == nil {
				return out.clone(), true
			}
			return cur, cur.merge(out)
		},
		func(b *CFGBlock, in DefSet) DefSet {
			out := in.clone()
			for _, def := range blockDefs[b] {
				out.kill(def)
			}
			return out
		})
	return entry, all
}

// DefsAt applies the definitions of b's nodes strictly before the node
// containing `at` to the block-entry fact in, yielding the definitions
// reaching `at`. (The containing node's own definitions are excluded:
// in `x := f(x)` the argument sees the previous x.)
func DefsAt(b *CFGBlock, in DefSet, info *types.Info, at ast.Node) DefSet {
	out := in.clone()
	for _, n := range b.Nodes {
		if containsNode(n, at) {
			break
		}
		for _, def := range nodeDefs(info, n) {
			out.kill(def)
		}
	}
	return out
}

// containsNode reports whether sub occurs in the subtree rooted at n.
func containsNode(n, sub ast.Node) bool {
	if n == sub {
		return true
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found || m == nil {
			return false
		}
		if m == sub {
			found = true
			return false
		}
		return true
	})
	return found
}

// nodeDefs extracts the variable definitions a single shallow CFG node
// performs, in evaluation order. Only named local variables are tracked;
// blank and field/index targets contribute nothing.
func nodeDefs(info *types.Info, n ast.Node) []*Definition {
	var defs []*Definition
	addIdent := func(id *ast.Ident, rhs ast.Expr) {
		if id == nil || id.Name == "_" {
			return
		}
		v, ok := assignee(info, id).(*types.Var)
		if !ok {
			return
		}
		defs = append(defs, &Definition{Var: v, Node: n, Rhs: rhs})
	}
	eachAssign(n, func(lhs, rhs ast.Expr) {
		if id, ok := lhs.(*ast.Ident); ok {
			addIdent(id, rhs)
		}
	})
	switch n := n.(type) {
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
			addIdent(id, nil)
		}
	case *ast.RangeStmt:
		if id, ok := ast.Unparen(n.Key).(*ast.Ident); ok && n.Key != nil {
			addIdent(id, nil)
		}
		if n.Value != nil {
			if id, ok := ast.Unparen(n.Value).(*ast.Ident); ok {
				addIdent(id, nil)
			}
		}
	}
	return defs
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
