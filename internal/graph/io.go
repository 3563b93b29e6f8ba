package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated edge list, one "u v" pair per
// line, in the format used by SNAP datasets. Lines whose first non-blank
// byte is '#' or '%' are comments, blank lines are skipped, a line may end
// in "\r\n", and columns after the second are ignored. Vertex IDs are
// unsigned decimal, kept as-is, and the vertex count is 1 + the maximum ID
// seen. Self-loops are dropped, as by FromEdges.
//
// As a safeguard against hostile or corrupt files, vertex IDs are capped
// at MaxEdgeListVertex: a single bogus line like "4294967295 1" would
// otherwise force a multi-gigabyte CSR allocation; renumber the IDs of
// such a graph densely. A line is capped at maxEdgeListLine bytes.
//
// Separators are ASCII white space. Lines are parsed in place in the
// reader's buffer, so parsing allocates nothing but the edge array; only
// a line longer than that buffer is copied out first.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	b := NewBuilder(0)
	var long []byte
	for lineNo := 1; ; lineNo++ {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull && len(long) <= maxEdgeListLine {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if len(line) == 0 && err == io.EOF {
			break
		}
		line, _ = bytes.CutSuffix(line, []byte{'\n'})
		if len(line) >= maxEdgeListLine {
			return nil, fmt.Errorf("graph: line %d: longer than %d bytes", lineNo, maxEdgeListLine-1)
		}
		if perr := b.addEdgeLine(line, lineNo); perr != nil {
			return nil, perr
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("graph: reading edge list: %w", err)
		}
	}
	return b.Build(), nil
}

// MaxEdgeListVertex bounds vertex IDs accepted by ReadEdgeList
// (~134M; the resulting CSR offset arrays stay around 1 GB).
const MaxEdgeListVertex = 1<<27 - 1

// maxEdgeListLine bounds an edge-list line, '\r' included and '\n' not:
// ReadEdgeList rejects a line of this many bytes or more.
const maxEdgeListLine = 1 << 22

// addEdgeLine parses one edge-list line (no '\n') and adds its edge to b,
// growing the vertex count to cover both IDs. Comment and blank lines add
// nothing. Errors carry lineNo and, for a bad ID, strconv's diagnosis.
func (b *Builder) addEdgeLine(line []byte, lineNo int) error {
	src, rest := nextField(line)
	if len(src) == 0 || src[0] == '#' || src[0] == '%' {
		return nil
	}
	dst, _ := nextField(rest)
	if len(dst) == 0 {
		return fmt.Errorf("graph: line %d: expected \"u v\", got %q", lineNo, strings.TrimSpace(string(line)))
	}
	u, ok := parseID(src)
	if !ok {
		_, err := strconv.ParseUint(string(src), 10, 32)
		return fmt.Errorf("graph: line %d: bad source %q: %v", lineNo, src, err)
	}
	v, ok := parseID(dst)
	if !ok {
		_, err := strconv.ParseUint(string(dst), 10, 32)
		return fmt.Errorf("graph: line %d: bad target %q: %v", lineNo, dst, err)
	}
	if u > MaxEdgeListVertex || v > MaxEdgeListVertex {
		return fmt.Errorf("graph: line %d: vertex ID beyond the %d cap; renumber IDs densely", lineNo, MaxEdgeListVertex)
	}
	b.Grow(int(max(u, v)) + 1)
	b.AddEdge(u, v)
	return nil
}

// nextField splits off the first run of non-blank bytes of line, skipping
// the blanks before it; field is empty when line has none.
func nextField(line []byte) (field, rest []byte) {
	i := 0
	for i < len(line) && isBlank(line[i]) {
		i++
	}
	j := i
	for j < len(line) && !isBlank(line[j]) {
		j++
	}
	return line[i:j], line[j:]
}

// isBlank reports whether c is ASCII white space: ' ', '\t', '\n', '\v',
// '\f' or '\r'.
func isBlank(c byte) bool { return c == ' ' || c-'\t' <= '\r'-'\t' }

// parseID parses a nonempty run of decimal digits worth at most
// math.MaxUint32 — exactly the strings strconv.ParseUint(s, 10, 32)
// accepts — without allocating.
func parseID(f []byte) (uint32, bool) {
	var x uint64
	for _, c := range f {
		d := c - '0'
		if d > 9 {
			return 0, false
		}
		if x = x*10 + uint64(d); x > math.MaxUint32 {
			return 0, false
		}
	}
	return uint32(x), len(f) > 0
}

// WriteEdgeList writes the graph as a "u v" per line edge list with a
// header comment recording n and m.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# n=%d m=%d\n", g.N(), g.M()); err != nil {
		return err
	}
	var werr error
	g.Edges(func(u, v uint32) bool {
		if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// LoadEdgeListFile reads an edge-list file from disk.
func LoadEdgeListFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(f)
}

// SaveEdgeListFile writes the graph to an edge-list file on disk.
func SaveEdgeListFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
