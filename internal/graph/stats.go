package graph

import (
	"fmt"

	"repro/internal/rng"
)

// Stats summarizes structural properties of a graph.
type Stats struct {
	N              int
	M              int
	AvgInDegree    float64
	MaxInDegree    int
	MaxOutDegree   int
	DanglingIn     int // vertices with no in-links (random walks die there)
	DanglingOut    int
	Components     int
	AvgDistance    float64 // sampled average undirected distance between reachable pairs
	EffectiveDiam  int     // 90th percentile of sampled distances
	SampledPairs   int
	ReachablePairs int
}

// ComputeStats gathers structural statistics. avgDistSamples controls how
// many BFS sources are sampled for the distance estimates (0 disables).
func ComputeStats(g *Graph, avgDistSamples int, seed uint64) Stats {
	st := Stats{N: g.N(), M: g.M()}
	if g.N() == 0 {
		return st
	}
	st.AvgInDegree = float64(g.M()) / float64(g.N())
	for v := uint32(0); int(v) < g.N(); v++ {
		if d := g.InDegree(v); d > st.MaxInDegree {
			st.MaxInDegree = d
		} else if d == 0 {
			st.DanglingIn++
		}
		if d := g.OutDegree(v); d > st.MaxOutDegree {
			st.MaxOutDegree = d
		} else if d == 0 {
			st.DanglingOut++
		}
	}
	_, st.Components = g.ConnectedComponents()
	if avgDistSamples > 0 {
		st.AvgDistance, st.EffectiveDiam, st.SampledPairs, st.ReachablePairs =
			SampleAverageDistance(g, avgDistSamples, seed)
	}
	return st
}

// SampleAverageDistance estimates the average undirected distance between
// vertex pairs by running BFS from `samples` random sources and averaging
// over all reachable targets. It also returns the 90th-percentile distance
// (effective diameter), the number of sampled sources, and the number of
// reachable (source, target) pairs observed.
//
// This produces the blue baseline line of Figure 2 in the paper.
func SampleAverageDistance(g *Graph, samples int, seed uint64) (avg float64, diam90 int, sampled, reachable int) {
	if g.N() == 0 || samples <= 0 {
		return 0, 0, 0, 0
	}
	r := rng.New(seed)
	exhaustive := samples >= g.N()
	if exhaustive {
		samples = g.N()
	}
	var total int64
	var distCounts []int64 // histogram by distance
	for i := 0; i < samples; i++ {
		src := uint32(i)
		if !exhaustive {
			src = uint32(r.Intn(g.N()))
		}
		dist := g.UndirectedDistances(src, -1)
		for v, d := range dist {
			if d <= 0 || v == int(src) {
				continue
			}
			total += int64(d)
			for int(d) >= len(distCounts) {
				distCounts = append(distCounts, 0)
			}
			distCounts[d]++
			reachable++
		}
	}
	sampled = samples
	if reachable == 0 {
		return 0, 0, sampled, 0
	}
	avg = float64(total) / float64(reachable)
	// 90th percentile of observed distances.
	target := int64(float64(reachable) * 0.9)
	var cum int64
	for d, c := range distCounts {
		cum += c
		if cum >= target {
			diam90 = d
			break
		}
	}
	return avg, diam90, sampled, reachable
}

func (s Stats) String() string {
	return fmt.Sprintf("n=%d m=%d avg_in_deg=%.2f max_in=%d dangling_in=%d comps=%d avg_dist=%.2f",
		s.N, s.M, s.AvgInDegree, s.MaxInDegree, s.DanglingIn, s.Components, s.AvgDistance)
}
