package graph

// Unreachable is the distance value reported for vertices not reachable
// from the BFS source.
const Unreachable = int32(-1)

// UndirectedDistances computes BFS distances from src treating every edge
// as undirected, limited to maxDist hops (pass a negative maxDist for no
// limit). This is the distance used by the L1 bound and the distance-decay
// experiments (Section 5 of the paper).
func (g *Graph) UndirectedDistances(src uint32, maxDist int) []int32 {
	dist := make([]int32, g.n)
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	queue := make([]uint32, 0, 64)
	queue = append(queue, src)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		d := dist[v]
		if maxDist >= 0 && int(d) >= maxDist {
			continue
		}
		for _, w := range g.Out(v) {
			if dist[w] == Unreachable {
				dist[w] = d + 1
				queue = append(queue, w)
			}
		}
		for _, w := range g.In(v) {
			if dist[w] == Unreachable {
				dist[w] = d + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// UndirectedBall returns the set of vertices within maxDist undirected
// hops of src together with their distances, without allocating O(n)
// state beyond a visited map. Suitable for local queries on large graphs.
func (g *Graph) UndirectedBall(src uint32, maxDist int) map[uint32]int32 {
	dist, _ := g.UndirectedBallBudget(src, maxDist, -1)
	return dist
}

// UndirectedBallBudget is UndirectedBall with a cap on the number of
// visited vertices (negative = unlimited). When the cap is reached,
// expansion stops and truncated is true: distances in the map remain
// exact, and absent vertices are merely "farther than what was explored".
// This keeps per-query work local on high-expansion graphs, matching the
// paper's observation that only a small neighbourhood of the query ever
// matters.
func (g *Graph) UndirectedBallBudget(src uint32, maxDist, budget int) (dist map[uint32]int32, truncated bool) {
	dist = map[uint32]int32{src: 0}
	queue := []uint32{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		d := dist[v]
		if int(d) >= maxDist {
			continue
		}
		if budget >= 0 && len(dist) >= budget {
			return dist, true
		}
		for _, w := range g.Out(v) {
			if _, ok := dist[w]; !ok {
				dist[w] = d + 1
				queue = append(queue, w)
			}
		}
		for _, w := range g.In(v) {
			if _, ok := dist[w]; !ok {
				dist[w] = d + 1
				queue = append(queue, w)
			}
		}
	}
	return dist, false
}

// UndirectedBallInto is the allocation-free variant of
// UndirectedBallBudget for callers holding reusable buffers: dist must be
// a length-N array whose entries are all Unreachable (the caller resets
// the touched entries afterwards — they are exactly the returned ball),
// and ball's backing array is reused for the visit list. The returned ball
// lists the discovered vertices in nondecreasing distance order (the list
// doubles as the BFS queue), starting with src. Budget and truncation
// semantics match UndirectedBallBudget: distances of listed vertices are
// exact even when truncated is true.
func (g *Graph) UndirectedBallInto(src uint32, maxDist, budget int, dist []int32, ball []uint32) ([]uint32, bool) {
	dist[src] = 0
	ball = append(ball, src)
	for head := 0; head < len(ball); head++ {
		v := ball[head]
		d := dist[v]
		if int(d) >= maxDist {
			continue
		}
		if budget >= 0 && len(ball) >= budget {
			return ball, true
		}
		for _, w := range g.Out(v) {
			if dist[w] == Unreachable {
				dist[w] = d + 1
				ball = append(ball, w)
			}
		}
		for _, w := range g.In(v) {
			if dist[w] == Unreachable {
				dist[w] = d + 1
				ball = append(ball, w)
			}
		}
	}
	return ball, false
}

// ConnectedComponents returns, for each vertex, the ID of its weakly
// connected component, plus the number of components. Component IDs are
// dense in [0, count).
func (g *Graph) ConnectedComponents() (comp []int32, count int) {
	comp = make([]int32, g.n)
	for i := range comp {
		comp[i] = -1
	}
	var queue []uint32
	for s := uint32(0); int(s) < g.n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := int32(count)
		count++
		comp[s] = id
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.Out(v) {
				if comp[w] < 0 {
					comp[w] = id
					queue = append(queue, w)
				}
			}
			for _, w := range g.In(v) {
				if comp[w] < 0 {
					comp[w] = id
					queue = append(queue, w)
				}
			}
		}
	}
	return comp, count
}
