package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// SealWrite enforces the immutability contract behind lock-free serving
// (DESIGN.md §8): once Seal() publishes a Snapshot, queries read it with
// no synchronization at all, so nothing may ever write a Snapshot field
// or store through its slices again. The builder is the one legitimate
// writer, and the builder is distinguishable by type: Engine embeds
// *Snapshot and all preprocessing mutates fields through an Engine-typed
// receiver or variable.
//
// Concretely, an assignment (or ++/--) whose target path passes through a
// field of the Snapshot struct is flagged unless:
//
//   - the base the field is selected from is Engine-typed (builder), or
//   - the write happens in snapshot.go or engine.go (the constructor and
//     preprocessing files, which initialize a not-yet-published value
//     through *Snapshot receivers).
//
// Mutating methods on sync types held inside the snapshot (pool.Get,
// atomic counters) are method calls, not assignments, and are governed by
// their own analyzers.
var SealWrite = &Analyzer{
	Name: "sealwrite",
	Doc: "Snapshot fields and their slice contents are immutable after Seal(); only the " +
		"Engine builder (or snapshot.go/engine.go) may write them",
	Run: runSealWrite,
}

// sealAllowedFiles are the construction files where *Snapshot-based
// writes are the point: the constructor and the preprocessing driver.
var sealAllowedFiles = map[string]bool{
	"snapshot.go": true,
	"engine.go":   true,
}

func runSealWrite(pass *Pass) error {
	snapFields, builderType := sealTypes(pass.Pkg)
	if len(snapFields) == 0 {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		file := pass.Pkg.Fset.Position(f.Pos()).Filename
		if sealAllowedFiles[filepath.Base(file)] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkSealTarget(pass, lhs, snapFields, builderType)
				}
			case *ast.IncDecStmt:
				checkSealTarget(pass, n.X, snapFields, builderType)
			}
			return true
		})
	}
	return nil
}

// sealTypes resolves the Snapshot struct's field objects and the Engine
// builder type from the package scope. Missing types (a fixture without
// an Engine) degrade gracefully.
func sealTypes(pkg *Package) (fields map[*types.Var]bool, builder types.Type) {
	fields = map[*types.Var]bool{}
	scope := pkg.Types.Scope()
	if obj := scope.Lookup("Snapshot"); obj != nil {
		if st, ok := obj.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				fields[st.Field(i)] = true
			}
		}
	}
	if obj := scope.Lookup("Engine"); obj != nil {
		builder = obj.Type()
	}
	return fields, builder
}

// checkSealTarget walks an assignment target's access path outward-in:
// if the path passes through a Snapshot field, the base the field is
// selected from decides legality.
func checkSealTarget(pass *Pass, lhs ast.Expr, snapFields map[*types.Var]bool, builder types.Type) {
	info := pass.Pkg.Info
	e := ast.Unparen(lhs)
	throughIndex := false
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			throughIndex = true
			e = ast.Unparen(x.X)
			continue
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
			continue
		case *ast.SelectorExpr:
			fv := selectedField(info, x)
			if fv != nil && snapFields[fv] {
				if !isBuilderExpr(info, x.X, builder) {
					if throughIndex {
						pass.Reportf(x.Sel.Pos(),
							"store through Snapshot.%s outside the builder; snapshots are immutable after Seal() "+
								"(mutate through the Engine during preprocessing)", fv.Name())
					} else {
						pass.Reportf(x.Sel.Pos(),
							"write to Snapshot.%s outside the builder; snapshots are immutable after Seal() "+
								"(mutate through the Engine during preprocessing)", fv.Name())
					}
				}
				return
			}
			e = ast.Unparen(x.X)
			continue
		}
		return
	}
}

// isBuilderExpr reports whether the expression the field is selected
// from is the Engine builder (directly or behind a pointer). Snapshot
// fields reached through an Engine are the preprocessing writes the
// design sanctions.
func isBuilderExpr(info *types.Info, e ast.Expr, builder types.Type) bool {
	if builder == nil {
		return false
	}
	t := typeOf(info, e)
	if t == nil {
		return false
	}
	return types.Identical(deref(t), builder)
}
