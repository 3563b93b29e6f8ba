package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestReadEdgeList(t *testing.T) {
	in := `# comment line
% another comment

0 1
1 2
2 0
0 2
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 4 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if !g.HasEdge(0, 2) {
		t.Fatal("missing edge")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",               // one field
		"a b\n",             // non-numeric source
		"0 b\n",             // non-numeric target
		"0 -1\n",            // negative
		"0 1 extra\n0\n",    // second line bad
		"0 1\r\n1\r\n",      // CRLF, second line one field
		"0\t1\n\t2\t\n",     // tabs, second line one field
		"0 1\n  # x\n2 x\n", // indented comment, then a bad target
		"+1 2\n",            // signed source
		"0 1\n" + strings.Repeat("7", maxEdgeListLine) + " 1\n", // over-long line
	}
	for _, in := range cases {
		_, err := ReadEdgeList(strings.NewReader(in))
		if err == nil {
			t.Fatalf("expected error for %.40q", in)
		}
		// Every diagnosis names the offending line: the last one.
		want := fmt.Sprintf("line %d:", strings.Count(in, "\n"))
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error for %.40q is %q, want it to name %q", in, err, want)
		}
	}
}

func TestReadEdgeListSeparators(t *testing.T) {
	// CRLF endings, tabs, indented comments, extra columns, self-loops and
	// a last line without '\n' all parse as the plain form does.
	in := "# c\r\n0\t1\r\n\t% indented\n 1  2 9 x\n\r\n5 5\n2 0"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !sameCSR(g, FromEdges(6, []Edge{{0, 1}, {1, 2}, {2, 0}})) {
		t.Fatalf("got %v, want the 3-cycle on 6 vertices", g)
	}
}

func TestReadEdgeListVertexCap(t *testing.T) {
	// A single hostile line must not force a giant allocation.
	if _, err := ReadEdgeList(strings.NewReader("4294967295 1\n")); err == nil {
		t.Fatal("expected cap error")
	}
	if _, err := ReadEdgeList(strings.NewReader("1 268435456\n")); err == nil {
		t.Fatal("expected cap error just above the limit")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := ErdosRenyi(50, 200, 3)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip changed size: %v vs %v", g2, g)
	}
	g.Edges(func(u, v uint32) bool {
		if !g2.HasEdge(u, v) {
			t.Fatalf("round trip lost edge (%d,%d)", u, v)
		}
		return true
	})
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	g := ErdosRenyi(30, 100, 2)
	if err := SaveEdgeListFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != g.M() {
		t.Fatalf("file round trip changed m: %d vs %d", g2.M(), g.M())
	}
}

// failingWriter errors after n bytes, for error-path coverage.
type failingWriter struct{ n int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errWriteFailed
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errWriteFailed
	}
	f.n -= len(p)
	return len(p), nil
}

var errWriteFailed = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "injected write failure" }

func TestWriteEdgeListFailure(t *testing.T) {
	g := ErdosRenyi(100, 400, 1)
	for _, budget := range []int{0, 10, 100} {
		if err := WriteEdgeList(&failingWriter{n: budget}, g); err == nil {
			t.Fatalf("budget %d: expected write error", budget)
		}
	}
}

func TestSaveToUnwritablePath(t *testing.T) {
	g := ErdosRenyi(5, 10, 1)
	if err := SaveEdgeListFile("/nonexistent-dir/g.txt", g); err == nil {
		t.Fatal("expected error for unwritable path")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := LoadEdgeListFile("/definitely/not/here.txt"); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// refReadEdgeList is ReadEdgeList as it stood before it parsed lines in
// place: bufio.Scanner lines, strings.Fields and strconv.ParseUint. It
// allocates per line; FuzzReadEdgeList holds the in-place parser to its
// verdicts and graphs.
func refReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var edges []Edge
	maxID := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: expected \"u v\", got %q", lineNo, line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q: %v", lineNo, fields[0], err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target %q: %v", lineNo, fields[1], err)
		}
		if u > MaxEdgeListVertex || v > MaxEdgeListVertex {
			return nil, fmt.Errorf("graph: line %d: vertex ID beyond the %d cap; renumber IDs densely", lineNo, MaxEdgeListVertex)
		}
		maxID = max(maxID, int(u), int(v))
		edges = append(edges, Edge{uint32(u), uint32(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return FromEdges(maxID+1, edges), nil
}

// sameCSR reports whether a and b have the same vertex count and the same
// in- and out-adjacency arrays.
func sameCSR(a, b *Graph) bool {
	return a.n == b.n && slices.Equal(a.outStart, b.outStart) && slices.Equal(a.outAdj, b.outAdj) &&
		slices.Equal(a.inStart, b.inStart) && slices.Equal(a.inAdj, b.inAdj)
}
