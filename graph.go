package simrank

import (
	"fmt"
	"io"

	"repro/internal/graph"
)

// Graph is an immutable directed graph. Vertices are dense integers in
// [0, NumVertices()). SimRank treats an edge (u, v) as "u links to v";
// similarity flows through shared in-links.
type Graph struct {
	g *graph.Graph
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.g.N() }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return g.g.M() }

// InDegree returns the number of in-links of v.
func (g *Graph) InDegree(v int) int { return g.g.InDegree(uint32(v)) }

// OutDegree returns the number of out-links of v.
func (g *Graph) OutDegree(v int) int { return g.g.OutDegree(uint32(v)) }

// HasEdge reports whether the directed edge (u, v) exists.
func (g *Graph) HasEdge(u, v int) bool { return g.g.HasEdge(uint32(u), uint32(v)) }

// Internal exposes the underlying representation for the experiment
// harness; not part of the stable API.
func (g *Graph) Internal() *graph.Graph { return g.g }

// GraphStats summarizes structural properties relevant to similarity
// search performance.
type GraphStats struct {
	Vertices int
	Edges    int
	// AvgInDegree is Edges / Vertices.
	AvgInDegree float64
	// MaxInDegree is the largest in-degree (hubs slow MC estimates).
	MaxInDegree int
	// DanglingIn counts vertices with no in-links (walks die there).
	DanglingIn int
	// Components is the number of weakly connected components.
	Components int
	// AvgDistance is the sampled average undirected pairwise distance
	// (the Figure 2 baseline); 0 when distSamples was 0.
	AvgDistance float64
}

// Stats computes structural statistics. distSamples controls how many
// BFS sources are sampled for the average-distance estimate (0 skips it,
// which is much faster on large graphs).
func (g *Graph) Stats(distSamples int) GraphStats {
	st := graph.ComputeStats(g.g, distSamples, 1)
	return GraphStats{
		Vertices:    st.N,
		Edges:       st.M,
		AvgInDegree: st.AvgInDegree,
		MaxInDegree: st.MaxInDegree,
		DanglingIn:  st.DanglingIn,
		Components:  st.Components,
		AvgDistance: st.AvgDistance,
	}
}

// GraphBuilder accumulates directed edges and produces a Graph.
type GraphBuilder struct {
	b *graph.Builder
}

// NewGraphBuilder returns a builder for a graph with n vertices.
func NewGraphBuilder(n int) *GraphBuilder {
	return &GraphBuilder{b: graph.NewBuilder(n)}
}

// AddEdge records the directed edge (u, v). Out-of-range endpoints and
// self-loops are rejected with an error (SimRank is defined on simple
// directed graphs).
func (gb *GraphBuilder) AddEdge(u, v int) error {
	n := gb.b.N()
	if u < 0 || v < 0 || u >= n || v >= n {
		return fmt.Errorf("simrank: edge (%d,%d) out of range for %d vertices", u, v, n)
	}
	gb.b.AddEdge(uint32(u), uint32(v))
	return nil
}

// AddUndirectedEdge records edges in both directions.
func (gb *GraphBuilder) AddUndirectedEdge(u, v int) error {
	if err := gb.AddEdge(u, v); err != nil {
		return err
	}
	return gb.AddEdge(v, u)
}

// Build finalizes the graph. Duplicate edges are removed.
func (gb *GraphBuilder) Build() *Graph {
	return &Graph{g: gb.b.Build()}
}

// FromEdges builds a graph with n vertices from (u, v) pairs.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	gb := NewGraphBuilder(n)
	for _, e := range edges {
		if err := gb.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return gb.Build(), nil
}

// LoadEdgeList parses a whitespace-separated "u v" edge list ('#' and '%'
// comment lines allowed), the format used by SNAP datasets.
func LoadEdgeList(r io.Reader) (*Graph, error) {
	g, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// LoadEdgeListFile reads an edge-list file from disk.
func LoadEdgeListFile(path string) (*Graph, error) {
	g, err := graph.LoadEdgeListFile(path)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// SaveEdgeListFile writes the graph as an edge-list file.
func (g *Graph) SaveEdgeListFile(path string) error {
	return graph.SaveEdgeListFile(path, g.g)
}

// The generators below produce synthetic graphs of the structural classes
// used in the paper's evaluation; see internal/graph for model details.

// GenerateWebGraph returns a copying-model web graph: n pages, ~k links
// per page, copy-divergence beta in (0,1). Web graphs have the strongest
// SimRank locality and are the method's best case.
func GenerateWebGraph(n, k int, beta float64, seed uint64) *Graph {
	return &Graph{g: graph.CopyingModel(n, k, beta, seed)}
}

// GenerateSocialGraph returns a preferential-attachment social network
// with ~k out-links per vertex and reciprocity pMutual.
func GenerateSocialGraph(n, k int, pMutual float64, seed uint64) *Graph {
	return &Graph{g: graph.PreferentialAttachment(n, k, pMutual, seed)}
}

// GenerateCollaborationGraph returns an undirected collaboration network
// of overlapping communities (papers with shared authors).
func GenerateCollaborationGraph(nCommunities, meanSize int, pIn float64, seed uint64) *Graph {
	return &Graph{g: graph.Collaboration(nCommunities, meanSize, pIn, nCommunities/10+1, seed)}
}

// GenerateCitationGraph returns a time-ordered citation DAG with ~k
// references per paper.
func GenerateCitationGraph(n, k int, seed uint64) *Graph {
	return &Graph{g: graph.CitationDAG(n, k, seed)}
}

// GenerateBipartiteGraph returns a user–item graph: users [0, nUsers),
// items [nUsers, nUsers+nItems), edges in both directions.
func GenerateBipartiteGraph(nUsers, nItems, ratingsPerUser int, seed uint64) *Graph {
	return &Graph{g: graph.BipartiteUserItem(nUsers, nItems, ratingsPerUser, seed)}
}

// errVertexRange builds the out-of-range error shared by all query
// entry points.
func errVertexRange(v, n int) error {
	return fmt.Errorf("simrank: vertex %d out of range [0, %d)", v, n)
}

// checkVertex validates a vertex ID against the graph: an error return
// rejects every out-of-range vertex.
func (g *Graph) checkVertex(v int) error {
	if v < 0 || v >= g.g.N() {
		return errVertexRange(v, g.g.N())
	}
	return nil
}
