package analysis

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadFixture type-checks one fixture package under testdata/src.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	pkg, _ := loadFixtureModule(t, name)
	return pkg
}

// loadFixtureModule additionally returns the loader, whose Packages()
// includes any module-local packages the fixture imported (fixture
// subpackages like hotalloc/dep are pulled in transitively by the
// loader's source importer).
func loadFixtureModule(t *testing.T, name string) (*Package, *Loader) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader(%s): %v", dir, err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	for _, te := range pkg.TypeErrors {
		t.Fatalf("fixture %s has type errors: %v", name, te)
	}
	return pkg, loader
}

// fixtureFunc returns the named top-level function of a fixture package.
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

var wantRE = regexp.MustCompile(`// want (".*")\s*$`)
var wantStrRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// runFixture runs one analyzer over a fixture package (plus any fixture
// subpackages it imports) and checks the diagnostics against the
// fixtures' `// want "substring"` comments: every want must be hit on
// its line, and every diagnostic must be wanted. Suppressed findings
// simply carry no want. The interprocedural module is built over every
// package the fixture load pulled in, so cross-package call chains are
// visible, same as the real driver.
func runFixture(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	root, loader := loadFixtureModule(t, fixture)
	pkgs := []*Package{root}
	for _, pkg := range loader.Packages() {
		if pkg != root && strings.HasPrefix(pkg.Dir, root.Dir+string(filepath.Separator)) {
			pkgs = append(pkgs, pkg)
		}
	}
	mod := BuildModule(loader.Packages())

	var diags []Diagnostic
	for _, pkg := range pkgs {
		ds, err := RunPackage(pkg, []*Analyzer{a}, RunOptions{Mod: mod})
		if err != nil {
			t.Fatalf("RunPackage(%s): %v", pkg.ImportPath, err)
		}
		diags = append(diags, ds...)
	}

	type key struct {
		file string
		line int
	}
	wants := map[key][]string{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					k := key{pos.Filename, pos.Line}
					for _, sm := range wantStrRE.FindAllStringSubmatch(m[1], -1) {
						wants[k] = append(wants[k], sm[1])
					}
				}
			}
		}
	}

	for _, d := range diags {
		k := key{d.File, d.Line}
		matched := -1
		for i, w := range wants[k] {
			if strings.Contains(d.Message, w) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
	}
	for k, ws := range wants {
		for _, w := range ws {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, w)
		}
	}
}
