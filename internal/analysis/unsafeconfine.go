package analysis

import (
	"go/ast"
	"path/filepath"
	"strconv"
	"strings"
)

// UnsafeConfine keeps pointer reinterpretation and memory-mapping
// machinery out of general code: importing unsafe or golang.org/x/sys,
// and calling the syscall mmap family, are only allowed in files whose
// basename mentions "mmap" — the zero-copy snapshot loaders, which are
// the one place the repository is allowed to alias raw bytes as typed
// arrays. A plain syscall import is fine everywhere (signal handling in
// the command-line tools uses syscall.SIGTERM); it is the mapping calls
// that are confined, because every one of them creates memory whose
// lifetime is not tracked by the garbage collector.
var UnsafeConfine = &Analyzer{
	Name: "unsafeconfine",
	Doc: "unsafe imports, golang.org/x/sys imports, and syscall mmap-family calls " +
		"are confined to *mmap* loader files",
	Run: runUnsafeConfine,
}

// mmapFamily lists the syscall package's mapping-related functions: each
// yields or manages memory outside the Go heap.
var mmapFamily = map[string]bool{
	"Mmap":       true,
	"Munmap":     true,
	"Mprotect":   true,
	"Mlock":      true,
	"Munlock":    true,
	"Mlockall":   true,
	"Munlockall": true,
	"Madvise":    true,
}

// unsafeConfineAllowed reports whether the file may hold confined
// constructs: any file whose basename contains "mmap".
func unsafeConfineAllowed(file string) bool {
	return strings.Contains(strings.ToLower(filepath.Base(file)), "mmap")
}

func runUnsafeConfine(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		file := pass.Pkg.Fset.Position(f.Pos()).Filename
		if unsafeConfineAllowed(file) {
			continue
		}
		syscallAs := "" // the file's name for package syscall
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			switch {
			case path == "syscall":
				syscallAs = path
				if imp.Name != nil {
					syscallAs = imp.Name.Name
				}
			case path == "unsafe":
				pass.Reportf(imp.Pos(),
					"import of unsafe outside an mmap loader file: byte reinterpretation is confined to *mmap*.go")
			case path == "golang.org/x/sys" || strings.HasPrefix(path, "golang.org/x/sys/"):
				pass.Reportf(imp.Pos(),
					"import of %s outside an mmap loader file: raw system-call wrappers are confined to *mmap*.go", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == syscallAs && mmapFamily[sel.Sel.Name] {
				pass.Reportf(sel.Pos(),
					"syscall.%s outside an mmap loader file: mapping calls are confined to *mmap*.go", sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}
