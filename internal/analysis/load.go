package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one parsed package, ready for analysis. Both rules read
// syntax alone, so nothing is type-checked.
type Package struct {
	Dir        string
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
}

// A Loader parses the packages of one module from source.
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset *token.FileSet
}

// NewLoader locates the enclosing module of dir (by walking up to go.mod)
// and returns a Loader for it.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{ModuleRoot: root, ModulePath: modPath, fset: token.NewFileSet()}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(file string) (string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", file)
}

// LoadAll walks every package directory under root (skipping testdata,
// hidden and vendor directories) and returns the loaded packages in
// sorted directory order. Directories without non-test Go files are
// skipped silently.
func (l *Loader) LoadAll(root string) ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor" || name == "results") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if goSource(dir, e) {
			return true
		}
	}
	return false
}

// buildCtx decides which files belong to a package on the host
// platform, exactly as `go build` would: //go:build constraint lines
// and GOOS/GOARCH filename suffixes both count, so a file is linted as
// part of the build that compiles it.
var buildCtx = build.Default

func goSource(dir string, e os.DirEntry) bool {
	name := e.Name()
	if e.IsDir() || !strings.HasSuffix(name, ".go") ||
		strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
		return false
	}
	ok, err := buildCtx.MatchFile(dir, name)
	return err == nil && ok
}

// LoadDir parses the single package in dir (test files excluded).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		if !goSource(dir, e) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	return &Package{
		Dir:        dir,
		ImportPath: l.importPath(dir),
		Fset:       l.fset,
		Files:      files,
	}, nil
}

// importPath maps a directory to its import path within the module.
// Directories outside the module fall back to their base name.
func (l *Loader) importPath(dir string) string {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.Base(dir)
	}
	if rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}
