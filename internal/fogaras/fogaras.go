// Package fogaras implements the Monte-Carlo single-pair / single-source
// SimRank algorithm of Fogaras and Rácz (WWW 2005), the state-of-the-art
// comparator in Section 8.3 of the paper.
//
// The method precomputes, for every vertex, R' reversed random walks of
// length T under the random surfer-pair model (eq. 2–3): SimRank is
// s(u,v) = E[c^τ] where τ is the first meeting time of coupled walks from
// u and v. Walks are *coalescing* — at step t every vertex uses the same
// random successor function f_{r,t} — so walks that meet stay together,
// exactly as in the fingerprint-tree formulation.
//
// The index stores the full fingerprint paths: n·R'·T positions. That
// O(n·R') footprint is the scalability bottleneck the paper exploits in
// its comparison, and this package reproduces it faithfully, including
// up-front memory-budget accounting that yields the "failed to allocate"
// cells of Table 4.
package fogaras

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/graph"
)

// Dead marks a walk that reached a vertex without in-links.
const Dead = graph.NoVertex

// ErrMemoryBudget is returned when the fingerprint index would exceed the
// configured budget; this reproduces the allocation failures reported for
// the algorithm on large graphs.
type ErrMemoryBudget struct {
	Need, Budget int64
}

func (e *ErrMemoryBudget) Error() string {
	return fmt.Sprintf("fogaras: fingerprint index needs %d bytes, budget %d", e.Need, e.Budget)
}

// Params configures the comparator. The paper's experiments use R' = 100
// and the same c and T as the proposed algorithm.
type Params struct {
	C    float64
	T    int
	R    int // number of fingerprints (R' in the papers)
	Seed uint64
	// MemoryBudget bounds the fingerprint index size in bytes;
	// 0 means unlimited.
	MemoryBudget int64
}

// DefaultParams mirrors Section 8.3: R' = 100, c = 0.6, T = 11.
func DefaultParams() Params {
	return Params{C: 0.6, T: 11, R: 100, Seed: 1}
}

// Index is the precomputed fingerprint set.
type Index struct {
	g *graph.Graph
	p Params
	// paths[(v*R + r)*T + (t-1)] is the position of fingerprint r of
	// vertex v after t steps (Dead once the walk leaves the graph).
	paths []uint32
	// groups indexes vertices by terminal signature per sample, making
	// single-source queries output-sensitive (see groups.go).
	groups []sampleGroups

	PreprocessTime time.Duration
}

// PredictBytes returns the index size the build would allocate: the
// fingerprint paths plus the per-sample terminal-signature groups.
func PredictBytes(n int, p Params) int64 {
	paths := int64(n) * int64(p.R) * int64(p.T) * 4
	groups := int64(n) * int64(p.R) * 12 // key (8) + id (4) per entry
	return paths + groups
}

// Build generates the fingerprints. It fails with *ErrMemoryBudget when
// the index would exceed p.MemoryBudget.
func Build(g *graph.Graph, p Params) (*Index, error) {
	if p.R <= 0 || p.T <= 0 {
		return nil, fmt.Errorf("fogaras: invalid params R=%d T=%d", p.R, p.T)
	}
	need := PredictBytes(g.N(), p)
	if p.MemoryBudget > 0 && need > p.MemoryBudget {
		return nil, &ErrMemoryBudget{Need: need, Budget: p.MemoryBudget}
	}
	start := time.Now()
	n := g.N()
	idx := &Index{g: g, p: p, paths: make([]uint32, n*p.R*p.T)}
	cur := make([]uint32, n)
	for r := 0; r < p.R; r++ {
		for v := range cur {
			cur[v] = uint32(v)
		}
		for t := 1; t <= p.T; t++ {
			for v := 0; v < n; v++ {
				pos := cur[v]
				if pos != Dead {
					cur[v] = successor(g, p.Seed, uint64(r), uint64(t), pos)
				}
				idx.paths[(v*p.R+r)*p.T+(t-1)] = cur[v]
			}
		}
	}
	idx.buildGroups()
	idx.PreprocessTime = time.Since(start)
	return idx, nil
}

// successor is the coalescing per-step random successor function f_{r,t}:
// every walk at vertex v at step t moves to the same random in-neighbour,
// chosen by hashing (seed, r, t, v). Walks that meet therefore never
// separate, as required by the random surfer-pair coupling.
func successor(g *graph.Graph, seed, r, t uint64, v uint32) uint32 {
	in := g.In(v)
	if len(in) == 0 {
		return Dead
	}
	h := mix(seed ^ mix(r+1) ^ mix(t+0x9e37) ^ mix(uint64(v)+0xabcd))
	return in[h%uint64(len(in))]
}

// mix is the splitmix64 finalizer.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// path returns fingerprint r of vertex v (positions after steps 1..T).
func (x *Index) path(v uint32, r int) []uint32 {
	base := (int(v)*x.p.R + r) * x.p.T
	return x.paths[base : base+x.p.T]
}

// Bytes returns the index footprint.
func (x *Index) Bytes() int64 {
	total := int64(len(x.paths)) * 4
	for _, g := range x.groups {
		total += int64(len(g.keys))*8 + int64(len(g.ids))*4
	}
	return total
}

// SinglePair estimates s(u, v) = E[c^τ]: the average over fingerprints of
// c to the first meeting time (0 if the walks never meet within T steps).
func (x *Index) SinglePair(u, v uint32) float64 {
	if u == v {
		return 1
	}
	sum := 0.0
	for r := 0; r < x.p.R; r++ {
		pu, pv := x.path(u, r), x.path(v, r)
		ct := x.p.C
		for t := 0; t < x.p.T; t++ {
			a, b := pu[t], pv[t]
			if a == Dead || b == Dead {
				break
			}
			if a == b {
				sum += ct
				break
			}
			ct *= x.p.C
		}
	}
	return sum / float64(x.p.R)
}

// SingleSource estimates s(u, v) for every v. The terminal-signature
// groups make this output-sensitive: per sample, only the vertices whose
// walks actually meet u's walk are visited (O(R·(log n + hits·log T))),
// which is what makes the method's query phase fast in Table 4 — at the
// price of the O(n·R) index that ultimately limits its scalability.
func (x *Index) SingleSource(u uint32) []float64 {
	n := x.g.N()
	out := make([]float64, n)
	out[u] = 1
	invR := 1.0 / float64(x.p.R)
	for r := 0; r < x.p.R; r++ {
		key := x.terminalKey(u, r)
		la := int(key >> 32)
		if la == 0 {
			continue // u's walk died immediately; meets nothing
		}
		for _, v := range x.groups[r].group(key) {
			if v == u {
				continue
			}
			tau := x.meetingTime(u, v, r, la)
			if tau > 0 {
				out[v] += pow(x.p.C, tau) * invR
			}
		}
	}
	return out
}

// pow is a small integer power helper (T is tiny; math.Pow is overkill).
func pow(c float64, k int) float64 {
	out := 1.0
	for i := 0; i < k; i++ {
		out *= c
	}
	return out
}

// TopK returns the k most similar vertices to u, best first.
func (x *Index) TopK(u uint32, k int) []Scored {
	scores := x.SingleSource(u)
	return topK(scores, u, k)
}

// Threshold returns every vertex with estimated score at least theta,
// best first; used by the accuracy comparison of Section 8.2.
func (x *Index) Threshold(u uint32, theta float64) []Scored {
	scores := x.SingleSource(u)
	var out []Scored
	for v, s := range scores {
		if uint32(v) != u && s >= theta {
			out = append(out, Scored{uint32(v), s})
		}
	}
	sortScored(out)
	return out
}

// Scored pairs a vertex with its estimated score.
type Scored struct {
	V     uint32
	Score float64
}

func topK(scores []float64, u uint32, k int) []Scored {
	if k <= 0 {
		return nil
	}
	var out []Scored
	for v, s := range scores {
		if uint32(v) == u || s == 0 {
			continue
		}
		out = append(out, Scored{uint32(v), s})
	}
	sortScored(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func sortScored(xs []Scored) {
	sort.Slice(xs, func(i, j int) bool {
		if xs[i].Score != xs[j].Score {
			return xs[i].Score > xs[j].Score
		}
		return xs[i].V < xs[j].V
	})
}
