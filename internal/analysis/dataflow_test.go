package analysis

import (
	"go/ast"
	"go/types"
	"testing"
)

func fixtureFunc(t *testing.T, pkg *Package, name string) *ast.FuncDecl {
	t.Helper()
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
				return fd
			}
		}
	}
	t.Fatalf("function %s not found in fixture", name)
	return nil
}

func sigParams(t *testing.T, pkg *Package, fd *ast.FuncDecl) []*types.Var {
	t.Helper()
	fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		t.Fatalf("no types.Func for %s", fd.Name.Name)
	}
	sig := fn.Type().(*types.Signature)
	var out []*types.Var
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// localVar finds the *types.Var defined with the given name inside fd.
func localVar(t *testing.T, pkg *Package, fd *ast.FuncDecl, name string) *types.Var {
	t.Helper()
	for id, obj := range pkg.Info.Defs {
		v, ok := obj.(*types.Var)
		if !ok || v.Name() != name {
			continue
		}
		if id.Pos() >= fd.Pos() && id.End() <= fd.End() {
			return v
		}
	}
	t.Fatalf("local %s not found in %s", name, fd.Name.Name)
	return nil
}

func TestGoCaptured(t *testing.T) {
	pkg := loadFixture(t, "dataflow")
	fd := fixtureFunc(t, pkg, "capture")
	captured := GoCaptured(pkg.Info, fd.Body)

	m := localVar(t, pkg, fd, "m")
	done := localVar(t, pkg, fd, "done")
	n := sigParams(t, pkg, fd)[0]

	if !captured[m] || !captured[done] {
		t.Errorf("m and done are referenced inside the go statement; captured = %v", captured)
	}
	if captured[n] {
		t.Errorf("n is only used outside the goroutine but was marked captured")
	}
}
