package analysis

import "testing"

func TestNoRandFixture(t *testing.T) {
	runFixture(t, NoRand, "norand")
}

func TestNoRandScope(t *testing.T) {
	cases := []struct {
		importPath string
		name       string
		want       bool
	}{
		{"repro", "simrank", true},
		{"repro/internal/core", "core", true},
		{"repro/internal/rng", "rng", true},
		{"repro/internal/bench", "bench", false},
		{"repro/internal/server", "server", false},
		{"repro/cmd/simsearch", "main", false},
		{"repro/examples/quickstart", "main", false},
		{"repro/internal/analysis/testdata/src/norand", "norandtest", true},
	}
	for _, c := range cases {
		pkg := &Package{ImportPath: c.importPath, Name: c.name}
		if got := inScope("norand", pkg); got != c.want {
			t.Errorf("inScope(norand, %s) = %v, want %v", c.importPath, got, c.want)
		}
	}
}

func TestNoRandFileAllowlist(t *testing.T) {
	if !norandFileAllowed("/root/repo/internal/core/engine.go") {
		t.Error("engine.go build-stats timing must be allowlisted")
	}
	if norandFileAllowed("/root/repo/internal/core/query.go") {
		t.Error("query.go must not be allowlisted")
	}
}
