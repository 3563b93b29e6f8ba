package core

import "slices"

// candidateIndex is the auxiliary bipartite graph H of Section 7.1: the
// left vertices are queries, the right vertices are frequently-reached
// walk positions, and two left vertices are candidate-similar when they
// share a right neighbour. Both directions are stored as flat CSR —
// four arrays, no per-vertex slice headers — so the whole index
// persists as four contiguous sections and serves zero-copy from an
// mmapped snapshot.
type candidateIndex struct {
	// rightStart/rightAdj: row u lists u_left's right neighbours,
	// sorted and deduplicated.
	rightStart []uint32 // n+1 row offsets
	rightAdj   []uint32
	// leftStart/leftAdj: row w lists the left vertices adjacent to
	// w_right, sorted.
	leftStart []uint32 // n+1 row offsets
	leftAdj   []uint32
}

// rightRow returns left vertex u's right neighbours (shared storage).
func (ci *candidateIndex) rightRow(u uint32) []uint32 {
	return ci.rightAdj[ci.rightStart[u]:ci.rightStart[u+1]]
}

// leftRow returns right vertex w's left adjacency (shared storage).
func (ci *candidateIndex) leftRow(w uint32) []uint32 {
	return ci.leftAdj[ci.leftStart[w]:ci.leftStart[w+1]]
}

// indexLanes is the lane width of the index walks, which keeps them on
// WalkLanes' lockstep loop. An index lane walks P·(1+Q) columns, so a
// group's output rows and generator state fill the cache sooner than a
// candidate group's; at graph.MaxWalkLanes lanes BenchmarkBuildIndex was
// level on web and ≈ 10 % slower on social (one core).
const indexLanes = 8

// buildIndex runs Algorithm 4 (INDEXING) for every vertex in parallel.
func (e *Engine) buildIndex() {
	rows := make([][]uint32, e.g.N())
	e.indexRows(rows)
	e.idx = indexFromRows(rows)
}

// indexRows runs the per-vertex part of Algorithm 4 for every vertex and
// sets rows[v] to v's sorted, deduplicated index entry: P trials, each one
// index walk W0 and Q collision walks W1..WQ; whenever two collision walks
// coincide at step t (both alive), the step-t vertex of W0 joins the entry.
//
// The vertices of a chunk go through graph.WalkTable.WalkLanes
// indexLanes at a time, one lane per vertex on its own vertexSeed stream. A
// lane's walk i is trial i/(1+Q)'s walk W_{i mod (1+Q)} — the order in
// which one vertex at a time would draw them — so every position, and
// every entry, is the same whichever vertices share the group. A chunk's
// entries share one allocation.
func (e *Engine) indexRows(rows [][]uint32) {
	T, P, Q := e.p.T, e.p.P, e.p.Q
	cols := P * (1 + Q)
	e.parallelVertices(func(chunk []uint32, s *scratch) {
		if len(s.indexLanes) == 0 || len(s.indexLanes[0].Out) != (T+1)*cols {
			s.indexLanes = newWalkLanes(indexLanes, (T+1)*cols)
		}
		found := s.indexFound[:0]
		var ends [vertexChunk]int
		for lo := 0; lo < len(chunk); lo += indexLanes {
			group := chunk[lo:min(lo+indexLanes, len(chunk))]
			lanes := s.indexLanes[:len(group)]
			for l, v := range group {
				lanes[l].Start = v
				lanes[l].Rng.Seed(e.vertexSeed(saltIndex, v))
			}
			e.wt.WalkLanes(lanes, 0, cols, T, cols)
			for l := range lanes {
				first := len(found)
				for trial := 0; trial < P; trial++ {
					base := trial * (1 + Q)
					for t := 1; t <= T; t++ {
						row := lanes[l].Out[t*cols+base : t*cols+base+1+Q]
						if row[0] == Dead {
							break
						}
						if collides(row[1:]) {
							found = append(found, row[0])
						}
					}
				}
				slices.Sort(found[first:])
				found = found[:first+len(slices.Compact(found[first:]))]
				ends[lo+l] = len(found)
			}
		}
		s.indexFound = found
		entries := slices.Clone(found)
		first := 0
		for i, v := range chunk {
			rows[v] = entries[first:ends[i]:ends[i]]
			first = ends[i]
		}
	})
}

// collides reports whether two of the positions ws coincide, both alive.
func collides(ws []uint32) bool {
	for j, w := range ws {
		if w == Dead {
			continue
		}
		for _, x := range ws[j+1:] {
			if x == w {
				return true
			}
		}
	}
	return false
}

// indexFromRows flattens per-vertex right rows into the CSR form and
// constructs the inverted (left) CSR by counting sort. Left rows come
// out sorted because the scan visits left vertices in ascending order.
func indexFromRows(rows [][]uint32) *candidateIndex {
	n := len(rows)
	ci := &candidateIndex{
		rightStart: make([]uint32, n+1),
		leftStart:  make([]uint32, n+1),
	}
	total := 0
	for _, rs := range rows {
		total += len(rs)
	}
	ci.rightAdj = make([]uint32, 0, total)
	for u, rs := range rows {
		ci.rightStart[u] = uint32(len(ci.rightAdj))
		ci.rightAdj = append(ci.rightAdj, rs...)
	}
	ci.rightStart[n] = uint32(len(ci.rightAdj))
	ci.buildInverted()
	return ci
}

// buildInverted fills leftStart/leftAdj from the right CSR.
func (ci *candidateIndex) buildInverted() {
	n := len(ci.rightStart) - 1
	counts := make([]uint32, n)
	for _, w := range ci.rightAdj {
		counts[w]++
	}
	off := uint32(0)
	for w, c := range counts {
		ci.leftStart[w] = off
		off += c
	}
	ci.leftStart[n] = off
	ci.leftAdj = make([]uint32, off)
	cursor := counts // reuse as per-row write cursors
	copy(cursor, ci.leftStart[:n])
	for u := 0; u < n; u++ {
		for _, w := range ci.rightRow(uint32(u)) {
			ci.leftAdj[cursor[w]] = uint32(u)
			cursor[w]++
		}
	}
}

// appendCandidates appends to out every left vertex sharing a right
// neighbour with u, deduplicated through the scratch's current epoch tally
// (the caller pre-marks u, so u never lists itself).
func (ci *candidateIndex) appendCandidates(u uint32, s *scratch, out []uint32) []uint32 {
	if ci == nil {
		return out
	}
	for _, w := range ci.rightRow(u) {
		for _, v := range ci.leftRow(w) {
			if !s.checkSeen(v) {
				out = append(out, v)
			}
		}
	}
	return out
}

// bytes approximates the index memory footprint; 0 for no index.
func (ci *candidateIndex) bytes() int64 {
	if ci == nil {
		return 0
	}
	return int64(len(ci.rightStart)+len(ci.rightAdj)+len(ci.leftStart)+len(ci.leftAdj)) * 4
}

// indexedVertices reports how many vertices have a non-empty index entry;
// used by tests and diagnostics.
func (ci *candidateIndex) indexedVertices() int {
	n := 0
	for u := 0; u < len(ci.rightStart)-1; u++ {
		if ci.rightStart[u+1] > ci.rightStart[u] {
			n++
		}
	}
	return n
}

// Scored pairs a vertex with its estimated SimRank score.
type Scored struct {
	V     uint32
	Score float64
}

// topKAcc accumulates the k best scored vertices seen so far. It keeps a
// sorted slice; k is small (paper: 20), so insertion beats a heap.
type topKAcc struct {
	k  int
	xs []Scored
}

func newTopKAcc(k int) *topKAcc { return &topKAcc{k: k} }

// add offers a scored vertex.
func (a *topKAcc) add(s Scored) {
	if a.k <= 0 {
		return
	}
	if len(a.xs) < a.k {
		a.xs = append(a.xs, s)
		for i := len(a.xs) - 1; i > 0 && scoredLess(a.xs[i-1], a.xs[i]); i-- {
			a.xs[i-1], a.xs[i] = a.xs[i], a.xs[i-1]
		}
		return
	}
	if !scoredLess(a.xs[a.k-1], s) {
		return
	}
	a.xs[a.k-1] = s
	for i := a.k - 1; i > 0 && scoredLess(a.xs[i-1], a.xs[i]); i-- {
		a.xs[i-1], a.xs[i] = a.xs[i], a.xs[i-1]
	}
}

// kth returns the current k-th best score, or 0 when fewer than k entries
// have been seen (so it is always a valid pruning lower bound).
func (a *topKAcc) kth() float64 {
	if len(a.xs) < a.k {
		return 0
	}
	return a.xs[a.k-1].Score
}

// result returns the accumulated top-k, best first.
func (a *topKAcc) result() []Scored { return a.xs }

// scoredLess orders by score ascending (so "less" means worse), breaking
// ties toward larger vertex IDs for deterministic output.
func scoredLess(a, b Scored) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.V > b.V
}
