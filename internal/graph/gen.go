package graph

import (
	"fmt"

	"repro/internal/rng"
)

// This file implements the synthetic workload generators that stand in for
// the paper's datasets (Table 2). Each generator targets one structural
// class from the evaluation:
//
//   - collaboration networks (ca-GrQc, ca-HepTh): clustered, undirected,
//     low degree, high triangle density -> Collaboration (community model
//     with dense intra-community wiring).
//   - social / voting networks (wiki-Vote, soc-Epinions, soc-Slashdot,
//     soc-LiveJournal): heavy-tailed directed graphs -> PreferentialAttachment.
//   - web graphs (web-Stanford, web-BerkStan, web-Google, in-2004,
//     it-2004): copying model, which reproduces the tight SimRank
//     locality the paper exploits -> CopyingModel.
//   - citation networks (Cora, cit-HepTh): time-ordered DAGs with
//     preferential citing -> CitationDAG.
//   - user-item graphs for the recommender example -> BipartiteUserItem.
//
// Plus small deterministic graphs (Star, Cycle, Grid, Complete, Path)
// used heavily by the unit and property tests.

// containsU32 reports whether xs contains x. The chosen-lists it serves
// are tiny (per-vertex degree), so linear scan beats a map.
func containsU32(xs []uint32, x uint32) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Star returns the star graph of order n: edges i->0 for i=1..n-1 plus
// 0->i, matching the "claw" example of Section 3.1 when n=4 (undirected).
func Star(n int) *Graph {
	b := NewBuilder(n)
	for i := uint32(1); int(i) < n; i++ {
		b.AddEdge(i, 0)
		b.AddEdge(0, i)
	}
	return b.Build()
}

// DirectedStar returns the star with edges pointing only at the hub,
// i->0 for i=1..n-1. All in-link random walks from leaves die after one
// step (the hub has in-links; leaves have none).
func DirectedStar(n int) *Graph {
	b := NewBuilder(n)
	for i := uint32(1); int(i) < n; i++ {
		b.AddEdge(i, 0)
	}
	return b.Build()
}

// Cycle returns the directed cycle 0 -> 1 -> ... -> n-1 -> 0.
func Cycle(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(uint32(i), uint32((i+1)%n))
	}
	return b.Build()
}

// Path returns the directed path 0 -> 1 -> ... -> n-1.
func Path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(uint32(i), uint32(i+1))
	}
	return b.Build()
}

// Complete returns the complete directed graph on n vertices (no self
// loops).
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for i := uint32(0); int(i) < n; i++ {
		for j := uint32(0); int(j) < n; j++ {
			if i != j {
				b.AddEdge(i, j)
			}
		}
	}
	return b.Build()
}

// Grid returns the rows x cols undirected grid graph.
func Grid(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	id := func(r, c int) uint32 { return uint32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
				b.AddEdge(id(r, c+1), id(r, c))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
				b.AddEdge(id(r+1, c), id(r, c))
			}
		}
	}
	return b.Build()
}

// ErdosRenyi returns a directed G(n, m) random graph with approximately m
// distinct edges (duplicates are regenerated).
func ErdosRenyi(n, m int, seed uint64) *Graph {
	if n < 2 {
		return NewBuilder(n).Build()
	}
	r := rng.New(seed)
	b := NewBuilder(n)
	seen := make(map[uint64]struct{}, m)
	for len(seen) < m && len(seen) < n*(n-1) {
		u := uint32(r.Intn(n))
		v := uint32(r.Intn(n))
		if u == v {
			continue
		}
		key := uint64(u)<<32 | uint64(v)
		if _, ok := seen[key]; ok {
			continue
		}
		seen[key] = struct{}{}
		b.AddEdge(u, v)
	}
	return b.Build()
}

// PreferentialAttachment returns a directed Barabási–Albert style graph:
// vertices arrive one at a time and attach k out-edges to earlier vertices
// chosen preferentially by in-degree (plus one smoothing). With mutual
// probability pMutual each edge is reciprocated, which mimics the partial
// reciprocity of social networks like soc-LiveJournal.
func PreferentialAttachment(n, k int, pMutual float64, seed uint64) *Graph {
	r := rng.New(seed)
	b := NewBuilder(n)
	if n == 0 {
		return b.Build()
	}
	// targets is a repeated-endpoint list: each vertex appears once per
	// unit of (in-degree + 1), so sampling uniformly from it implements
	// preferential attachment with add-one smoothing.
	targets := make([]uint32, 0, 2*n*k)
	targets = append(targets, 0)
	for v := 1; v < n; v++ {
		deg := k
		if v < k {
			deg = v
		}
		chosen := make([]uint32, 0, deg)
		for len(chosen) < deg {
			t := targets[r.Intn(len(targets))]
			if int(t) == v || containsU32(chosen, t) {
				continue
			}
			chosen = append(chosen, t)
		}
		for _, t := range chosen {
			b.AddEdge(uint32(v), t)
			targets = append(targets, t)
			if pMutual > 0 && r.Float64() < pMutual {
				b.AddEdge(t, uint32(v))
				targets = append(targets, uint32(v))
			}
		}
		targets = append(targets, uint32(v))
	}
	return b.Build()
}

// CopyingModel returns a directed web-like graph following the copying
// model of Kumar et al.: each new page picks a random existing prototype
// page and creates k out-links; each link copies the corresponding link of
// the prototype with probability 1-beta and otherwise points to a uniform
// random earlier page. Copying creates many pages with identical or
// near-identical in-link sets, exactly the structure that gives web graphs
// their strong SimRank locality (paper Section 5, Figure 2).
func CopyingModel(n, k int, beta float64, seed uint64) *Graph {
	r := rng.New(seed)
	b := NewBuilder(n)
	outs := make([][]uint32, n)
	for v := 0; v < n; v++ {
		if v == 0 {
			continue
		}
		proto := uint32(r.Intn(v))
		links := make([]uint32, 0, k)
		for i := 0; i < k; i++ {
			var t uint32
			if i < len(outs[proto]) && r.Float64() >= beta {
				t = outs[proto][i] // copy the prototype's i-th link
			} else {
				t = uint32(r.Intn(v)) // fresh uniform link
			}
			if int(t) == v {
				continue
			}
			links = append(links, t)
			b.AddEdge(uint32(v), t)
		}
		outs[v] = links
	}
	return b.Build()
}

// Collaboration returns an undirected collaboration-style network:
// nCommunities cliques-ish groups of sizes drawn around meanSize, wired
// internally with probability pIn, plus random inter-community bridges so
// the graph is (mostly) connected. Mirrors ca-GrQc / ca-HepTh structure:
// small dense groups (papers' author lists) overlapping through shared
// members.
func Collaboration(nCommunities, meanSize int, pIn float64, bridges int, seed uint64) *Graph {
	if meanSize < 2 {
		meanSize = 2
	}
	r := rng.New(seed)
	type community []uint32
	var comms []community
	n := 0
	for i := 0; i < nCommunities; i++ {
		size := 2 + r.Intn(2*meanSize-3+1) // uniform in [2, 2*meanSize-2], mean ~ meanSize
		c := make(community, size)
		for j := range c {
			// With 30% probability reuse an existing vertex (overlapping
			// communities, i.e. authors on multiple papers).
			if n > 0 && r.Float64() < 0.3 {
				c[j] = uint32(r.Intn(n))
			} else {
				c[j] = uint32(n)
				n++
			}
		}
		comms = append(comms, c)
	}
	b := NewBuilder(n)
	addBoth := func(u, v uint32) {
		if u != v {
			b.AddEdge(u, v)
			b.AddEdge(v, u)
		}
	}
	for _, c := range comms {
		for i := 0; i < len(c); i++ {
			for j := i + 1; j < len(c); j++ {
				if r.Float64() < pIn {
					addBoth(c[i], c[j])
				}
			}
		}
	}
	for i := 0; i < bridges && n >= 2; i++ {
		addBoth(uint32(r.Intn(n)), uint32(r.Intn(n)))
	}
	return b.Build()
}

// CitationDAG returns a time-ordered citation network: paper v cites k
// earlier papers, preferring recent and highly cited ones. Mirrors
// Cora / cit-HepTh.
func CitationDAG(n, k int, seed uint64) *Graph {
	r := rng.New(seed)
	b := NewBuilder(n)
	cites := make([]uint32, 0, n*k) // preferential pool by citation count
	for v := 1; v < n; v++ {
		deg := k
		if v < k {
			deg = v
		}
		chosen := make([]uint32, 0, deg)
		for len(chosen) < deg {
			var t uint32
			switch {
			case len(cites) > 0 && r.Float64() < 0.5:
				t = cites[r.Intn(len(cites))] // preferential by citations
			case r.Float64() < 0.7:
				// Recency: one of the last ~50 papers.
				window := 50
				if v < window {
					window = v
				}
				t = uint32(v - 1 - r.Intn(window))
			default:
				t = uint32(r.Intn(v))
			}
			if int(t) >= v || containsU32(chosen, t) {
				continue
			}
			chosen = append(chosen, t)
		}
		for _, t := range chosen {
			b.AddEdge(uint32(v), t)
			cites = append(cites, t)
		}
	}
	return b.Build()
}

// BipartiteUserItem returns a bipartite user->item graph with nUsers users
// (IDs [0, nUsers)) and nItems items (IDs [nUsers, nUsers+nItems)).
// Each user rates ~ratingsPerUser items with popularity skew; edges are
// added in both directions so SimRank relates items through co-raters.
func BipartiteUserItem(nUsers, nItems, ratingsPerUser int, seed uint64) *Graph {
	r := rng.New(seed)
	n := nUsers + nItems
	b := NewBuilder(n)
	pool := make([]uint32, 0, nUsers*ratingsPerUser+nItems)
	for i := 0; i < nItems; i++ {
		pool = append(pool, uint32(nUsers+i))
	}
	for u := 0; u < nUsers; u++ {
		k := 1 + r.Intn(2*ratingsPerUser-1) // mean ~ ratingsPerUser
		chosen := make([]uint32, 0, k)
		for len(chosen) < k && len(chosen) < nItems {
			it := pool[r.Intn(len(pool))]
			if containsU32(chosen, it) {
				continue
			}
			chosen = append(chosen, it)
		}
		for _, it := range chosen {
			b.AddEdge(uint32(u), it)
			b.AddEdge(it, uint32(u))
			pool = append(pool, it) // popularity feedback
		}
	}
	return b.Build()
}

// GenSpec names a generator with its parameters, so dataset catalogs and
// CLI tools can describe graphs declaratively.
type GenSpec struct {
	Kind string // "er", "ba", "copying", "collab", "citation", "bipartite", "star", "cycle", "path", "grid", "complete"
	N    int
	M    int     // edge count (er)
	K    int     // per-vertex edges (ba, copying, citation) / ratings (bipartite)
	P    float64 // model probability (ba: pMutual; copying: beta; collab: pIn)
	Rows int     // grid
	Cols int     // grid
	N2   int     // bipartite: nItems
	Seed uint64
}

// Generate builds the graph described by the spec.
func Generate(s GenSpec) (*Graph, error) {
	switch s.Kind {
	case "er":
		return ErdosRenyi(s.N, s.M, s.Seed), nil
	case "ba":
		return PreferentialAttachment(s.N, s.K, s.P, s.Seed), nil
	case "copying":
		return CopyingModel(s.N, s.K, s.P, s.Seed), nil
	case "collab":
		return Collaboration(s.N, s.K, s.P, s.N/10+1, s.Seed), nil
	case "citation":
		return CitationDAG(s.N, s.K, s.Seed), nil
	case "bipartite":
		return BipartiteUserItem(s.N, s.N2, s.K, s.Seed), nil
	case "star":
		return Star(s.N), nil
	case "cycle":
		return Cycle(s.N), nil
	case "path":
		return Path(s.N), nil
	case "grid":
		return Grid(s.Rows, s.Cols), nil
	case "complete":
		return Complete(s.N), nil
	default:
		return nil, fmt.Errorf("graph: unknown generator kind %q", s.Kind)
	}
}
