package analysis

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadFixture parses one fixture package under testdata/src.
func loadFixture(t *testing.T, name string) *Package {
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
	return pkg
}

var wantRE = regexp.MustCompile(`// want (".*")\s*$`)
var wantStrRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// runFixture runs one analyzer over a fixture package and checks the
// diagnostics against the fixture's `// want "substring"` comments: every
// want must be hit on its line, and every diagnostic must be wanted.
// Suppressed findings simply carry no want.
func runFixture(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	pkg := loadFixture(t, fixture)
	diags, err := RunPackage(pkg, []*Analyzer{a}, RunOptions{})
	if err != nil {
		t.Fatalf("RunPackage(%s): %v", pkg.ImportPath, err)
	}

	type key struct {
		file string
		line int
	}
	wants := map[key][]string{}
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
