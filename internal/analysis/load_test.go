package analysis

import (
	"strings"
	"testing"
)

// TestLoadModule smoke-tests the loader over the real module: every
// package parses, carries its module import path, and testdata is
// skipped.
func TestLoadModule(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if loader.ModulePath != "repro" {
		t.Fatalf("module path = %q, want repro", loader.ModulePath)
	}
	pkgs, err := loader.LoadAll(loader.ModuleRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages", len(pkgs))
	}
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		seen[pkg.ImportPath] = true
		if len(pkg.Files) == 0 {
			t.Errorf("%s: no files", pkg.ImportPath)
		}
		if strings.Contains(pkg.ImportPath, "testdata") {
			t.Errorf("LoadAll must skip testdata, loaded %s", pkg.ImportPath)
		}
	}
	for _, want := range []string{"repro", "repro/internal/core", "repro/internal/rng", "repro/cmd/simlint"} {
		if !seen[want] {
			t.Errorf("package %s not loaded", want)
		}
	}
}

// TestRunCleanOnModule is the in-process version of the make-check gate:
// every analyzer must be clean over the whole repository, directives
// judged, so `go test ./...` alone catches a violation.
func TestRunCleanOnModule(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll(loader.ModuleRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		diags, err := RunPackage(pkg, Analyzers(), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
