package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// SeedMix enforces the PR-1 lesson: deterministic RNG streams derived
// from structured ids (vertex numbers, step counters — anything narrower
// than 64 bits) must be separated through rng.Mix over an *injective*
// packing of those ids. Two failure shapes are rejected:
//
//  1. A seed expression at an RNG construction site (rng.New, Source.Seed)
//     that combines two or more raw ids with xor/shift/add arithmetic and
//     no Mix call at all. Distinct id tuples can then share a seed and
//     their walk streams become correlated.
//
//  2. A Mix/splitmix call whose argument packs two or more ids
//     non-injectively, e.g. the historical pairSeed bug u ^ (v<<1): the
//     collision happens before the finalizer, so mixing cannot undo it.
//     Pack 32-bit ids as uint64(a)<<32 | uint64(b) instead.
//
// XORing one Mix-ed value with 64-bit salts or the global seed is fine;
// combining the ids themselves raw is not.
var SeedMix = &Analyzer{
	Name: "seedmix",
	Doc: "RNG seeds built from two or more vertex/step ids must go through " +
		"rng.Mix over an injective packing, not raw xor/shift arithmetic",
	Run: runSeedMix,
}

func runSeedMix(pass *Pass) error {
	info := pass.Pkg.Info
	eachFuncDecl(pass.Pkg, func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			if isMixCall(call) {
				checkMixPacking(pass, call)
			} else if isSeedSink(info, call) {
				arg := resolveLocal(info, fd.Body, call.Args[0], call.Pos())
				ids := map[string]bool{}
				collectRawIDs(info, arg, ids)
				if len(ids) >= 2 {
					pass.Reportf(call.Pos(),
						"seed combines ids (%s) with raw arithmetic; collisions correlate their streams — pack the ids and pass them through rng.Mix",
						idList(ids))
				}
			}
			return true
		})
	})
	return nil
}

func idList(ids map[string]bool) string {
	names := make([]string, 0, len(ids))
	for id := range ids {
		names = append(names, id)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// isSeedSink recognizes the RNG construction points: rng.New(seed) and
// (*rng.Source).Seed(seed).
func isSeedSink(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "New":
		return pkgIdent(info, sel.X, "rng")
	case "Seed":
		// Method call: receiver must be an rng.Source (pointer or value).
		if s, ok := info.Selections[sel]; ok {
			return typeFromRNG(s.Recv())
		}
		// Incomplete type info: accept any non-package receiver named
		// Seed with one argument rather than silently missing cases.
		return !pkgIdentAny(info, sel.X)
	}
	return false
}

// isMixCall recognizes the splitmix finalizer family: rng.Mix, a local
// mix helper, or splitmix64-style functions.
func isMixCall(call *ast.CallExpr) bool {
	name := calleeName(call)
	lower := strings.ToLower(name)
	return lower == "mix" || strings.HasPrefix(lower, "splitmix")
}

// checkMixPacking verifies that a Mix argument combining several ids does
// so injectively (disjoint bit ranges via a wide shift).
func checkMixPacking(pass *Pass, call *ast.CallExpr) {
	info := pass.Pkg.Info
	arg := call.Args[0]
	ids := map[string]bool{}
	collectRawIDs(info, arg, ids)
	if len(ids) < 2 {
		return
	}
	if injectivePack(info, arg) {
		return
	}
	pass.Reportf(call.Pos(),
		"ids (%s) are packed non-injectively before mixing (the u^(v<<1) collision class); use uint64(a)<<32|uint64(b)",
		idList(ids))
}

// injectivePack matches the blessed packing shape, modulo xor/add with
// id-free salts on either side: uint64(a)<<k OP uint64(b) with k >= 32
// and OP in {|, ^, +}, each side carrying exactly one id.
func injectivePack(info *types.Info, e ast.Expr) bool {
	e = stripSalts(info, e)
	be, ok := e.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch be.Op {
	case token.OR, token.XOR, token.ADD:
	default:
		return false
	}
	x := stripSalts(info, be.X)
	y := stripSalts(info, be.Y)
	return (isWideShiftedID(info, x) && isPlainID(info, y)) ||
		(isWideShiftedID(info, y) && isPlainID(info, x))
}

// stripSalts removes wrapping parens and salt-style binary ops (xor, or,
// add, sub) whose other operand carries no ids (constants, 64-bit salts,
// the global seed). Shifts are never stripped: a shift by a constant is
// part of the packing shape, not a salt.
func stripSalts(info *types.Info, e ast.Expr) ast.Expr {
	for {
		e = ast.Unparen(e)
		be, ok := e.(*ast.BinaryExpr)
		if !ok {
			return e
		}
		switch be.Op {
		case token.XOR, token.OR, token.ADD, token.SUB:
		default:
			return e
		}
		xids := map[string]bool{}
		yids := map[string]bool{}
		collectRawIDs(info, be.X, xids)
		collectRawIDs(info, be.Y, yids)
		switch {
		case len(xids) == 0 && len(yids) > 0:
			e = be.Y
		case len(yids) == 0 && len(xids) > 0:
			e = be.X
		default:
			return e
		}
	}
}

func isWideShiftedID(info *types.Info, e ast.Expr) bool {
	be, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || be.Op != token.SHL {
		return false
	}
	tv, ok := info.Types[be.Y]
	if !ok || tv.Value == nil {
		return false
	}
	shift, err := strconv.ParseInt(tv.Value.ExactString(), 10, 64)
	if err != nil || shift < 32 {
		return false
	}
	return isPlainID(info, be.X)
}

// isPlainID reports whether e is a single id, possibly through integer
// conversions: u, uint64(u), uint64(u+1).
func isPlainID(info *types.Info, e ast.Expr) bool {
	ids := map[string]bool{}
	collectRawIDs(info, e, ids)
	return len(ids) == 1
}

func typeFromRNG(t types.Type) bool {
	named, ok := deref(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg.Name() == "rng" || strings.HasSuffix(pkg.Path(), "/rng")
}

func pkgIdentAny(info *types.Info, expr ast.Expr) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	_, isPkg := info.Uses[id].(*types.PkgName)
	return isPkg
}

// resolveLocal follows one level of local definition: for
// `seed := u ^ v<<1; r.Seed(seed)` it returns the defining expression,
// provided seed has exactly one assignment before the call.
func resolveLocal(info *types.Info, body *ast.BlockStmt, arg ast.Expr, before token.Pos) ast.Expr {
	id, ok := ast.Unparen(arg).(*ast.Ident)
	if !ok {
		return arg
	}
	obj := info.Uses[id]
	if obj == nil {
		return arg
	}
	var def ast.Expr
	count := 0
	sameFuncInspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Pos() >= before {
			return true
		}
		for i, lhs := range as.Lhs {
			l, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			if info.Defs[l] == obj || info.Uses[l] == obj {
				count++
				if i < len(as.Rhs) {
					def = as.Rhs[i]
				}
			}
		}
		return true
	})
	if count == 1 && def != nil {
		return def
	}
	return arg
}

// collectRawIDs walks a seed expression and records every distinct
// id-like leaf that is combined without passing through a call. Ids are
// expressions of integer type narrower than 64 bits (vertex ids are
// uint32, loop counters int); 64-bit values are treated as salts or
// already-mixed seeds. Non-conversion calls are opaque: their results
// count as mixed.
func collectRawIDs(info *types.Info, e ast.Expr, ids map[string]bool) {
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return // constant expression (literals, salt consts)
	}
	switch e := e.(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
			token.AND, token.OR, token.XOR, token.SHL, token.SHR, token.AND_NOT:
			collectRawIDs(info, e.X, ids)
			collectRawIDs(info, e.Y, ids)
		}
	case *ast.UnaryExpr:
		collectRawIDs(info, e.X, ids)
	case *ast.CallExpr:
		// A conversion like uint64(u) is transparent; a real call mixes.
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			collectRawIDs(info, e.Args[0], ids)
		}
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
		if isNarrowInt(info, e) {
			if key := leafKey(e); key != "" {
				ids[key] = true
			}
		}
	}
}

func isNarrowInt(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Int, types.Int8, types.Int16, types.Int32,
		types.Uint, types.Uint8, types.Uint16, types.Uint32:
		return true
	}
	return false
}

func leafKey(e ast.Expr) string {
	if key := exprKey(e); key != "" {
		return key
	}
	if ie, ok := e.(*ast.IndexExpr); ok {
		return exprKey(ie.X) + "[...]"
	}
	return ""
}
