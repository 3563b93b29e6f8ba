package main

import (
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

func TestBuildGraphByKind(t *testing.T) {
	g, err := buildGraph("", 1, "copying", 100, 0, 4, 0.3, 0, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 100 {
		t.Fatalf("n = %d", g.N())
	}
}

func TestBuildGraphByDataset(t *testing.T) {
	g, err := buildGraph("ca-grqc-sim", 0.05, "", 0, 0, 0, 0, 0, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() == 0 {
		t.Fatal("empty dataset graph")
	}
}

func TestBuildGraphErrors(t *testing.T) {
	if _, err := buildGraph("", 1, "", 0, 0, 0, 0, 0, 0, 0, 1); err == nil {
		t.Fatal("expected error without kind or dataset")
	}
	if _, err := buildGraph("nope", 1, "", 0, 0, 0, 0, 0, 0, 0, 1); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
	if _, err := buildGraph("", 1, "bogus", 10, 0, 0, 0, 0, 0, 0, 1); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestWriteGraph(t *testing.T) {
	g, err := buildGraph("", 1, "er", 30, 90, 0, 0, 0, 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	text := filepath.Join(dir, "g.txt")
	if err := writeGraph(g, text); err != nil {
		t.Fatal(err)
	}
	g2, err := graph.LoadEdgeListFile(text)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != g.M() {
		t.Fatal("text round trip lost edges")
	}

	if err := writeGraph(g, filepath.Join(dir, "missing", "g.txt")); err == nil {
		t.Fatal("expected error for an unwritable path")
	}
}
