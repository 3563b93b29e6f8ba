package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicField guards fields that are published or mutated atomically:
// the snapshot pointer in DynamicEngine (atomic.Pointer[Snapshot]) and
// the caches' slot arrays ([]atomic.Pointer[cacheEntry[P]]) are read
// lock-free on the query hot path, so a single plain load or store
// anywhere reintroduces the data race the whole design exists to avoid.
//
// Two classes of field are tracked:
//
//   - fields whose type is one of the sync/atomic value types
//     (atomic.Bool, atomic.Int64, atomic.Pointer[T], ...), directly or
//     as a slice/array element. These must only be touched through their
//     method set or by taking their address; assigning or copying the
//     value compiles (go vet's copylocks does not always catch it) but
//     tears the atomicity.
//   - plain fields that are passed by address to a sync/atomic function
//     (atomic.LoadInt64(&x.f), ...) anywhere in the package. Every other
//     access to such a field must go through sync/atomic too; a plain
//     read races with the atomic writers.
//
// Exemption: values still under construction are not shared yet. A field
// access whose receiver chain is rooted at a local variable that was
// freshly constructed in this function (composite literal or new()) and
// that never escapes to a goroutine (the GoCaptured fact) is allowed —
// this is how constructors initialize atomic state before publishing.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc: "a field accessed via sync/atomic (atomic.* type or atomic.XxxInt64(&f)) must " +
		"never be read or written plainly; use the atomic API on every access",
	Run: runAtomicField,
}

// isAtomicFuncName matches the package-level sync/atomic functions that
// take the address of the shared word as their first argument
// (atomic.LoadInt64, atomic.CompareAndSwapUint32, ...).
func isAtomicFuncName(name string) bool {
	for _, prefix := range []string{"Load", "Store", "Add", "Swap", "CompareAndSwap"} {
		if len(name) > len(prefix) && strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// isAtomicValueType reports whether t is a sync/atomic value type (Go
// 1.19+ API).
func isAtomicValueType(t types.Type) bool {
	return isNamed(t, "sync/atomic", "Bool", "Int32", "Int64", "Uint32", "Uint64", "Uintptr", "Pointer", "Value")
}

// atomicContainerKind classifies a field type: the atomic value itself,
// a slice/array of atomic values, or neither.
type atomicKind uint8

const (
	notAtomic atomicKind = iota
	atomicScalar
	atomicSliceOf
)

func classifyAtomicField(t types.Type) atomicKind {
	if isAtomicValueType(t) {
		return atomicScalar
	}
	var elem types.Type
	switch t := t.Underlying().(type) {
	case *types.Slice:
		elem = t.Elem()
	case *types.Array:
		elem = t.Elem()
	}
	if elem != nil && isAtomicValueType(elem) {
		return atomicSliceOf
	}
	return notAtomic
}

func runAtomicField(pass *Pass) error {
	info := pass.Pkg.Info

	// Pass 1 over the whole package: collect the tracked field sets and
	// the &x.f operands sanctioned by appearing inside an atomic.* call.
	typed := map[*types.Var]atomicKind{}    // fields with atomic.* (element) type
	opped := map[*types.Var]bool{}          // plain fields used via atomic.XxxT(&f)
	sanctioned := map[*ast.UnaryExpr]bool{} // the &f operands of those calls
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, field := range n.Fields.List {
					for _, name := range field.Names {
						v, ok := info.Defs[name].(*types.Var)
						if !ok {
							continue
						}
						if k := classifyAtomicField(v.Type()); k != notAtomic {
							typed[v] = k
						}
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || !pkgIdent(info, sel.X, "atomic") || !isAtomicFuncName(sel.Sel.Name) {
					return true
				}
				for _, arg := range n.Args {
					ue, ok := ast.Unparen(arg).(*ast.UnaryExpr)
					if !ok || ue.Op != token.AND {
						continue
					}
					if fv := selectedField(info, ue.X); fv != nil {
						opped[fv] = true
						sanctioned[ue] = true
					}
				}
			}
			return true
		})
	}
	if len(typed) == 0 && len(opped) == 0 {
		return nil
	}

	// Pass 2: classify every access to a tracked field by its syntactic
	// context, per function so the fresh-local exemption has a scope.
	eachFuncDecl(pass.Pkg, func(fd *ast.FuncDecl) {
		checkAtomicAccesses(pass, fd.Body, typed, opped, sanctioned, freshLocals(info, fd.Body))
	})
	return nil
}

// selectedField returns the struct field a selector chain ultimately
// names (x.f, (*x).f, x.y[i].f → f's *types.Var), or nil.
func selectedField(info *types.Info, e ast.Expr) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := info.Selections[sel]; ok {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
		return nil
	}
	// Package-qualified selector or similar: not a field.
	if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

// freshLocals returns the local variables of body that are initialized
// from a composite literal, &literal, or new(T) and are never captured by
// a goroutine: values still private to this function, whose atomic fields
// may be initialized plainly before publication.
func freshLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	captured := GoCaptured(info, body)
	fresh := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				continue
			}
			if isFreshExpr(as.Rhs[i]) && !captured[obj] {
				fresh[obj] = true
			}
		}
		return true
	})
	return fresh
}

// isFreshExpr matches the construction forms that yield a value no one
// else can reference yet: T{...}, &T{...}, new(T).
func isFreshExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, ok := e.X.(*ast.CompositeLit)
		return e.Op == token.AND && ok
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		return ok && id.Name == "new"
	}
	return false
}

// checkAtomicAccesses walks one function, keeping a parent stack so each
// tracked-field selector can be judged by the expression it sits in.
func checkAtomicAccesses(pass *Pass, body *ast.BlockStmt, typed map[*types.Var]atomicKind, opped map[*types.Var]bool, sanctioned map[*ast.UnaryExpr]bool, fresh map[types.Object]bool) {
	info := pass.Pkg.Info
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fv := selectedField(info, sel)
		if fv == nil {
			return true
		}
		kind, isTyped := typed[fv]
		if !isTyped && !opped[fv] {
			return true
		}
		if rootedAtFresh(info, sel, fresh) {
			return true
		}
		// stack[len-1] == sel itself; the parent is one earlier.
		parents := stack[:len(stack)-1]
		if !isTyped {
			checkOppedUse(pass, sel, fv, parents, sanctioned)
			return true
		}
		switch kind {
		case atomicScalar:
			checkAtomicValueUse(pass, sel, fv, sel, parents)
		case atomicSliceOf:
			checkAtomicSliceUse(pass, sel, fv, parents)
		}
		return true
	})
}

// rootedAtFresh reports whether the selector chain's root identifier is a
// fresh, goroutine-free local (constructor exemption).
func rootedAtFresh(info *types.Info, sel *ast.SelectorExpr, fresh map[types.Object]bool) bool {
	id, ok := chainRoot(sel).(*ast.Ident)
	return ok && fresh[assignee(info, id)]
}

// directParent returns the node directly containing the one whose
// ancestors are parents.
func directParent(parents []ast.Node) ast.Node {
	if len(parents) == 0 {
		return nil
	}
	return parents[len(parents)-1]
}

// checkOppedUse: a plain field used via atomic.XxxT(&f) elsewhere — the
// only legal appearance is as the sanctioned &f operand of such a call.
func checkOppedUse(pass *Pass, sel *ast.SelectorExpr, fv *types.Var, parents []ast.Node, sanctioned map[*ast.UnaryExpr]bool) {
	p := directParent(parents)
	if ue, ok := p.(*ast.UnaryExpr); ok && ue.Op == token.AND && sanctioned[ue] {
		return
	}
	pass.Reportf(sel.Sel.Pos(),
		"field %s is accessed via sync/atomic elsewhere in this package; this plain access races with the atomic ones",
		fv.Name())
}

// checkAtomicValueUse judges one use of an atomic.* value (the field
// itself or one element of an atomic slice field). at is the expression
// whose parent chain is judged; report positions use sel.
func checkAtomicValueUse(pass *Pass, sel *ast.SelectorExpr, fv *types.Var, at ast.Expr, parents []ast.Node) {
	p := directParent(parents)
	switch p := p.(type) {
	case *ast.SelectorExpr:
		// x.f.Load(...) — method access on the atomic value. The atomic
		// types expose nothing but their method set, so any selector off
		// the value is the sanctioned API.
		if p.X == at {
			return
		}
	case *ast.UnaryExpr:
		// &x.f — address taken (to pass the atomic value by pointer).
		if p.Op == token.AND && p.X == at {
			return
		}
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if ast.Unparen(lhs) == at {
				pass.Reportf(sel.Sel.Pos(),
					"plain store to atomic field %s; use %s.Store (or CompareAndSwap)", fv.Name(), fv.Name())
				return
			}
		}
	}
	pass.Reportf(sel.Sel.Pos(),
		"plain read of atomic field %s copies the value and tears atomicity; use %s.Load", fv.Name(), fv.Name())
}

// checkAtomicSliceUse judges a use of a slice-of-atomic field: the slice
// header itself is freely copyable (len, pass, reslice, reassign), only
// element accesses must go through the atomic API.
func checkAtomicSliceUse(pass *Pass, sel *ast.SelectorExpr, fv *types.Var, parents []ast.Node) {
	p := directParent(parents)
	ix, ok := p.(*ast.IndexExpr)
	if !ok || ix.X != sel {
		// Header-level use (make/assign/len/range without value): allowed;
		// range with a value copies elements, which tears them.
		if rs, ok := p.(*ast.RangeStmt); ok && rs.X == sel && rs.Value != nil {
			pass.Reportf(sel.Sel.Pos(),
				"ranging over atomic slice field %s with a value copies its elements; index and use .Load", fv.Name())
		}
		return
	}
	// Element access x.f[i]: judge the IndexExpr by its own parent.
	checkAtomicValueUse(pass, sel, fv, ix, parents[:len(parents)-1])
}
