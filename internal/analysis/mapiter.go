package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapIter guards the determinism promise against Go's randomized map
// iteration order: a `for range` over a map may accumulate into a slice
// only if that slice is sorted (or otherwise canonicalized) before it
// escapes the function as a return value, channel message, or struct
// field. Sending directly to a channel from inside the loop is always an
// error (there is nothing left to sort), while writing through a dense
// index (out[v] = ...) is always fine — position, not visit order,
// determines the result.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc: "map iteration feeding a returned slice, channel, or struct field " +
		"must be sorted or dense-indexed before it escapes",
	Run: runMapIter,
}

func runMapIter(pass *Pass) error {
	eachFunc(pass.Pkg, func(ftype *ast.FuncType, body *ast.BlockStmt) {
		checkMapRanges(pass, ftype, body)
	})
	return nil
}

// checkMapRanges analyzes one function body (not descending into nested
// function literals, which are checked on their own).
func checkMapRanges(pass *Pass, ftype *ast.FuncType, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	sameFuncInspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rs.X]
		if !ok || tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkOneMapRange(pass, ftype, body, rs)
		return true
	})
}

// accumTarget is one slice the loop body appends to: either a plain
// variable (obj != nil) or a selector chain like s.out (key != "").
type accumTarget struct {
	obj types.Object
	key string
	pos token.Pos
}

// mentionedIn reports whether the subtree references the target.
func (t accumTarget) mentionedIn(info *types.Info, n ast.Node) bool {
	if t.obj != nil {
		return mentionsObj(info, n, t.obj)
	}
	return mentionsKey(n, t.key)
}

func checkOneMapRange(pass *Pass, ftype *ast.FuncType, body *ast.BlockStmt, rs *ast.RangeStmt) {
	info := pass.Pkg.Info
	mapName := exprKey(rs.X)
	if mapName == "" {
		mapName = "map"
	}

	var targets []accumTarget
	sameFuncInspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"map iteration order over %s reaches a channel send; collect and sort before sending", mapName)
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if !isAppendCall(n.Rhs[i]) {
					continue
				}
				switch l := ast.Unparen(lhs).(type) {
				case *ast.Ident:
					if obj := assignee(info, l); obj != nil {
						targets = append(targets, accumTarget{obj: obj, pos: n.Pos()})
					}
				case *ast.SelectorExpr:
					// Appending straight into a struct field.
					if key := exprKey(l); key != "" {
						targets = append(targets, accumTarget{key: key, pos: n.Pos()})
					}
				}
			}
		}
		return true
	})

	for _, t := range targets {
		if t.obj != nil && !escapes(info, ftype, body, t.obj) {
			continue // local accumulator (a counter, a set): order never observable
		}
		if sortedAfter(info, body, rs, t) {
			continue
		}
		name := t.key
		if t.obj != nil {
			name = t.obj.Name()
		}
		pass.Reportf(rs.Pos(),
			"iteration over map %s appends to %s, which escapes unsorted; sort it after the loop or extract by dense index",
			mapName, name)
	}
}

func isAppendCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "append"
}

func assignee(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// escapes reports whether obj leaves the function: it appears in a return
// statement, is a named result, is sent on a channel, or is assigned into
// a struct field.
func escapes(info *types.Info, ftype *ast.FuncType, body *ast.BlockStmt, obj types.Object) bool {
	if ftype != nil && ftype.Results != nil {
		for _, field := range ftype.Results.List {
			for _, name := range field.Names {
				if info.Defs[name] == obj {
					return true
				}
			}
		}
	}
	found := false
	sameFuncInspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if mentionsObj(info, r, obj) {
					found = true
				}
			}
		case *ast.SendStmt:
			if mentionsObj(info, n.Value, obj) {
				found = true
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if _, isSel := ast.Unparen(lhs).(*ast.SelectorExpr); !isSel {
					continue
				}
				if i < len(n.Rhs) && mentionsObj(info, n.Rhs[i], obj) {
					found = true
				} else if len(n.Rhs) == 1 && len(n.Lhs) > 1 && mentionsObj(info, n.Rhs[0], obj) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// sortedAfter reports whether, lexically after the range loop, the target
// is passed to something that sorts it: any call whose final callee name
// contains "sort" (sort.Slice, slices.Sort, a local sortScored helper, an
// x.Sort() method) and whose arguments mention the target.
func sortedAfter(info *types.Info, body *ast.BlockStmt, rs *ast.RangeStmt, t accumTarget) bool {
	found := false
	sameFuncInspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return !found
		}
		name := exprKey(call.Fun)
		if name == "" {
			name = calleeName(call)
		}
		if !strings.Contains(strings.ToLower(name), "sort") {
			return !found
		}
		for _, arg := range call.Args {
			found = found || t.mentionedIn(info, arg)
		}
		// A method receiver counts too: out.Sort().
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			found = found || t.mentionedIn(info, sel.X)
		}
		return !found
	})
	return found
}
