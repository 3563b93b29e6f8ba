// Package graph provides the compact directed-graph substrate used by the
// SimRank algorithms: immutable CSR adjacency in both directions, loaders,
// synthetic generators, BFS distance routines, and structural statistics.
//
// Vertices are dense integers in [0, N). The in-adjacency direction is the
// one SimRank random walks follow (a step moves to a uniformly random
// in-neighbour); both directions are stored so queries can also expand
// neighbourhoods and compute undirected distances.
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// NoVertex is the sentinel used for "no vertex", e.g. a dead random walk.
const NoVertex = ^uint32(0)

// Graph is an immutable directed graph in compressed sparse row form.
// Build one with a Builder or FromEdges. The zero value is an empty graph.
type Graph struct {
	n int

	// inStart[v] .. inStart[v+1] indexes inAdj: the in-neighbours of v
	// (sources of edges ending at v). This is the direction SimRank
	// random walks follow.
	inStart []uint32
	inAdj   []uint32

	// outStart/outAdj: out-neighbours of v (targets of edges leaving v).
	outStart []uint32
	outAdj   []uint32
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of directed edges.
func (g *Graph) M() int { return len(g.inAdj) }

// InDegree returns the number of in-neighbours of v.
func (g *Graph) InDegree(v uint32) int {
	return int(g.inStart[v+1] - g.inStart[v])
}

// OutDegree returns the number of out-neighbours of v.
func (g *Graph) OutDegree(v uint32) int {
	return int(g.outStart[v+1] - g.outStart[v])
}

// In returns the in-neighbours of v. The slice aliases internal storage
// and must not be modified.
func (g *Graph) In(v uint32) []uint32 {
	return g.inAdj[g.inStart[v]:g.inStart[v+1]]
}

// Out returns the out-neighbours of v. The slice aliases internal storage
// and must not be modified.
func (g *Graph) Out(v uint32) []uint32 {
	return g.outAdj[g.outStart[v]:g.outStart[v+1]]
}

// HasEdge reports whether the directed edge (u, v) exists.
// Adjacency lists are sorted, so this is a binary search.
func (g *Graph) HasEdge(u, v uint32) bool {
	adj := g.Out(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// Edges calls fn for every directed edge (u, v). It stops early if fn
// returns false.
func (g *Graph) Edges(fn func(u, v uint32) bool) {
	for u := uint32(0); int(u) < g.n; u++ {
		for _, v := range g.Out(u) {
			if !fn(u, v) {
				return
			}
		}
	}
}

// Bytes returns the approximate in-memory size of the CSR structure.
func (g *Graph) Bytes() int64 {
	return int64(len(g.inStart)+len(g.inAdj)+len(g.outStart)+len(g.outAdj)) * 4
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.n, g.M())
}

// Edge is a directed edge from U to V.
type Edge struct {
	U, V uint32
}

// Builder accumulates edges and produces an immutable Graph.
// Duplicate edges are removed; self-loops are kept or dropped according
// to KeepSelfLoops (SimRank's definition is usually applied to graphs
// without self-loops, so the default drops them).
type Builder struct {
	n             int
	edges         []Edge
	KeepSelfLoops bool
}

// NewBuilder returns a builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// AddEdge records the directed edge (u, v). It panics if either endpoint
// is out of range.
func (b *Builder) AddEdge(u, v uint32) {
	if int(u) >= b.n || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", u, v, b.n))
	}
	if u == v && !b.KeepSelfLoops {
		return
	}
	b.edges = append(b.edges, Edge{u, v})
}

// Grow ensures the builder accommodates at least n vertices.
func (b *Builder) Grow(n int) {
	if n > b.n {
		b.n = n
	}
}

// N returns the current number of vertices.
func (b *Builder) N() int { return b.n }

// Build produces the immutable Graph. The builder may be reused afterwards
// but retains its edges; call Reset to clear.
func (b *Builder) Build() *Graph {
	// Sort by (U, V) to dedupe and produce sorted out-adjacency.
	slices.SortFunc(b.edges, func(x, y Edge) int {
		return cmp.Compare(uint64(x.U)<<32|uint64(x.V), uint64(y.U)<<32|uint64(y.V))
	})
	dedup := b.edges[:0:len(b.edges)]
	var last Edge
	for i, e := range b.edges {
		if i > 0 && e == last {
			continue
		}
		dedup = append(dedup, e)
		last = e
	}
	b.edges = dedup

	g := &Graph{n: b.n}
	m := len(b.edges)
	g.outStart = make([]uint32, b.n+1)
	g.outAdj = make([]uint32, m)
	g.inStart = make([]uint32, b.n+1)
	g.inAdj = make([]uint32, m)

	for _, e := range b.edges {
		g.outStart[e.U+1]++
		g.inStart[e.V+1]++
	}
	for i := 0; i < b.n; i++ {
		g.outStart[i+1] += g.outStart[i]
		g.inStart[i+1] += g.inStart[i]
	}
	outPos := make([]uint32, b.n)
	inPos := make([]uint32, b.n)
	for _, e := range b.edges {
		g.outAdj[g.outStart[e.U]+outPos[e.U]] = e.V
		outPos[e.U]++
		g.inAdj[g.inStart[e.V]+inPos[e.V]] = e.U
		inPos[e.V]++
	}
	// Both adjacency arrays come out sorted: edges were ordered by (U, V),
	// so each out-list is filled in increasing target order and each
	// in-list in increasing source order.
	return g
}

// Reset clears accumulated edges, keeping the vertex count.
func (b *Builder) Reset() { b.edges = b.edges[:0] }

// FromEdges builds a graph with n vertices and the given directed edges.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}
