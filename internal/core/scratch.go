package core

import (
	"math/bits"

	"repro/internal/graph"
	"repro/internal/rng"
)

// scratch bundles every reusable buffer of the query and preprocess hot
// paths: walk position arrays, epoch-marked dense accumulators (the
// allocation-free replacement for the old map[uint32]-based tallies),
// dense BFS distances, walk distributions, and the per-query candidate /
// bound / score working sets.
//
// Engines hand scratches out of a sync.Pool (getScratch / putScratch), so
// after warm-up a query performs near-zero allocations: the only escaping
// allocation is the result slice itself. A scratch is owned by exactly one
// goroutine at a time; parallel candidate scoring gives each worker its
// own pooled scratch.
type scratch struct {
	n int

	// Epoch-marked dense tally. mark[v] == epoch means v is part of the
	// current tally and cnt[v] is valid; bumping epoch clears the whole
	// tally in O(1). touched lists the marked vertices, so results can be
	// extracted (and sorted) in O(support), never O(n). A floating-point
	// tally (pushMass) keeps its masses in push, in first-touch order, and
	// cnt[v] is v's index there.
	mark    []uint32
	epoch   uint32
	cnt     []int32
	touched []uint32
	push    []float64

	// orderTouched's scatter target (swapped with touched after each
	// ordering pass) and its bucket-count / directory buffer.
	ordered []uint32
	dir     []uint32

	// Walk position buffers (one per side of a walk-pair estimate) and
	// the batched step kernel's lane scratch (packed CSR row descriptors,
	// bounded at graph.StepLane so it stays L1-resident).
	pos  []uint32
	pos2 []uint32
	lane []uint64

	// Dense undirected distances for the query-local ball. Entries are -1
	// ("clean") outside a query; ball lists the vertices the last BFS
	// touched so resetDist can clean up in O(ball). Lazily allocated, like
	// the L1 storage below: only a plan of a ball strategy asks for them, so
	// preprocess scratches and index-strategy queries never pay the 4n bytes.
	dist []int32
	ball []uint32

	// Walk distributions: wd holds the query-side distribution, wd2 the
	// candidate-side one in exact-scoring mode. peak[t] is α*(u,t) =
	// max_w D_ww·p̂_u,t(w) for each nonempty step t of the distribution a
	// builder last filled on this scratch, which horizon reads.
	wd   walkDist
	wd2  walkDist
	peak []float64

	// Per-candidate RNG, re-seeded for every candidate so scores do not
	// depend on candidate evaluation order (and hence worker count).
	rng rng.Source

	// Query working sets.
	cands  []uint32
	bounds []boundedCand
	scores []ShardCand
	// shareStats holds one tally-cache counter set per scoring share of a
	// parallel block (scoreBlock), summed into the query's when it ends.
	shareStats []QueryStats

	// Candidate tally kernel buffers (tally.go): tpos is the walk-major
	// step×walk position matrix, and tallyOff/tallyV/tallyCnt/tallyRcnt
	// hold the compact per-step sorted tally view built from it.
	tpos      []uint32
	tallyOff  []int32
	tallyV    []uint32
	tallyCnt  []uint16
	tallyRcnt []uint16

	// Lane kernel buffers (lanes.go): the block positions still waiting
	// for walks, the lanes of one full-R group and of one rough section
	// (each lane owns a fixed T-row position matrix; allocated on first
	// use, so cached and exact scoring never pay for them), and the
	// index-space hit tally of dotPositions — counters and a bitset over
	// one step's support, all zero between calls.
	pend       []int32
	fullLanes  []graph.WalkLane
	roughLanes []graph.WalkLane
	hitCnt     []uint32
	hitSet     []uint64

	// L1-bound working storage (Algorithm 2's α table and β result).
	alpha    []float64
	overflow []float64
	l1       l1Table

	// Algorithm 4's buffers (index.go): the lanes of one vertex group,
	// each with a (T+1)×P·(1+Q) position matrix (allocated on first use,
	// so query scratches never pay for them), and the entries of the chunk
	// being built.
	indexLanes []graph.WalkLane
	indexFound []uint32
}

func newScratch(n int) *scratch {
	return &scratch{
		n:    n,
		mark: make([]uint32, n),
		cnt:  make([]int32, n),
	}
}

// beginTally starts a fresh tally: previous marks become stale in O(1).
func (s *scratch) beginTally() {
	s.epoch++
	if s.epoch == 0 {
		// uint32 wrap-around: stale marks from 4B tallies ago could alias
		// the new epoch, so clear them once.
		clear(s.mark)
		s.epoch = 1
	}
	s.touched = s.touched[:0]
}

// tallyCount adds one observation of v to the current integer tally.
func (s *scratch) tallyCount(v uint32) {
	if s.mark[v] != s.epoch {
		s.mark[v] = s.epoch
		s.cnt[v] = 0
		s.touched = append(s.touched, v)
	}
	s.cnt[v]++
}

// tallyLive starts a fresh tally of the live walks in pos and returns pos
// compacted to them, order kept. A step batch (graph.StepWalks) draws for live
// walks only, in slice order, so dropping the dead ones changes no draw
// and no position — most web walks are dead after two or three steps, and
// the later steps then neither gather nor test them.
func (s *scratch) tallyLive(pos []uint32) []uint32 {
	s.beginTally()
	k := 0
	for _, w := range pos {
		if w != Dead {
			s.tallyCount(w)
			pos[k] = w
			k++
		}
	}
	return pos[:k]
}

// pushMass adds floating-point mass m at v to the current tally, whose
// push buffer the caller emptied when it began.
func (s *scratch) pushMass(v uint32, m float64) {
	if s.mark[v] != s.epoch {
		s.mark[v] = s.epoch
		s.cnt[v] = int32(len(s.touched))
		s.touched = append(s.touched, v)
		s.push = append(s.push, m)
		return
	}
	s.push[s.cnt[v]] += m
}

// singleBucketMax is the largest support kept in one bucket: below it a
// plain insertion sort and a scan beat counting into buckets (a rough
// tally of RRough = 10 walks never has more).
const singleBucketMax = 12

// bucketing picks the bucket directory geometry for a support of S
// distinct vertex ids below n: nb is the largest power of two below S
// (1 when S ≤ singleBucketMax) and vertex w falls in bucket w >> shift.
// Every id below n maps to a bucket below nb, a bucket spans 2^shift
// consecutive ids, and uniformly spread ids put one to two vertices in
// each.
func bucketing(n, S int) (nb int, shift uint8) {
	lg := 0
	if S > singleBucketMax {
		lg = bits.Len(uint(S-1)) - 1
	}
	return 1 << lg, uint8(bits.Len32(uint32(n-1)) - lg)
}

// orderTouched sorts the current tally's touched list ascending in O(S)
// expected time and returns the bucket directory of the sorted list:
// bucket b = w >> shift occupies touched[dir[b]:dir[b+1]]. One counting
// pass by bucket, a prefix sum, a scatter, and an insertion sort that
// only ever moves a vertex inside its own bucket (buckets are already in
// order relative to each other). Ids crowded into few buckets cost the
// insertion sort more, never correctness. dir aliases scratch storage and
// is valid until the next call; callers that only need the order ignore it.
func (s *scratch) orderTouched() (dir []uint32, shift uint8) {
	src := s.touched
	nb, shift := bucketing(s.n, len(src))
	if cap(s.dir) < nb+2 {
		s.dir = make([]uint32, 2*nb+2) //lint:ignore hotalloc amortized pooled growth; steady state reuses the scratch capacity
	}
	cur := s.dir[:nb+2]
	if nb == 1 {
		// One bucket: nothing to count or scatter.
		insertionSort(src)
		cur[0], cur[1] = 0, uint32(len(src))
		return cur[:2], shift
	}
	// counts live two slots up so that after the prefix sum cur[b+1] is
	// bucket b's start, the scatter advances it to bucket b's end — which
	// is bucket b+1's start — and cur[:nb+1] is left holding the directory.
	clear(cur)
	for _, w := range src {
		cur[(w>>shift)+2]++
	}
	for b := 2; b < len(cur); b++ {
		cur[b] += cur[b-1]
	}
	if cap(s.ordered) < len(src) {
		s.ordered = make([]uint32, len(src), 2*len(src)) //lint:ignore hotalloc amortized pooled growth; steady state reuses the scratch capacity
	}
	dst := s.ordered[:len(src)]
	for _, w := range src {
		b := (w >> shift) + 1
		dst[cur[b]] = w
		cur[b]++
	}
	insertionSort(dst)
	s.touched, s.ordered = dst, src
	return cur[:nb+1], shift
}

// insertionSort sorts xs ascending; linear when every element is within a
// constant distance of its place, as after orderTouched's scatter.
func insertionSort(xs []uint32) {
	for i := 1; i < len(xs); i++ {
		w := xs[i]
		j := i
		for ; j > 0 && xs[j-1] > w; j-- {
			xs[j] = xs[j-1]
		}
		xs[j] = w
	}
}

// checkSeen reports whether v was already marked in the current tally,
// marking it if not. Used for candidate deduplication.
func (s *scratch) checkSeen(v uint32) bool {
	if s.mark[v] == s.epoch {
		return true
	}
	s.mark[v] = s.epoch
	return false
}

// walkBuf returns the primary walk-position buffer with length R.
func (s *scratch) walkBuf(R int) []uint32 {
	if cap(s.pos) < R {
		s.pos = make([]uint32, R)
	}
	s.pos = s.pos[:R]
	return s.pos
}

// laneBuf returns the step kernel's lane scratch, sized for R walks
// (2 × min(R, graph.StepLane) entries, per StepWalks' contract).
func (s *scratch) laneBuf(R int) []uint64 {
	n := R
	if n > graph.StepLane {
		n = graph.StepLane
	}
	n *= 2
	if cap(s.lane) < n {
		s.lane = make([]uint64, n)
	}
	return s.lane[:n]
}

// walkBuf2 returns the secondary walk-position buffer with length R.
func (s *scratch) walkBuf2(R int) []uint32 {
	if cap(s.pos2) < R {
		s.pos2 = make([]uint32, R)
	}
	s.pos2 = s.pos2[:R]
	return s.pos2
}

// tposBuf returns the walk-major position matrix with T rows of length
// stride. Contents are NOT cleared: the tally builders read exactly the
// columns the current candidate's simulation wrote.
func (s *scratch) tposBuf(T, stride int) []uint32 {
	n := T * stride
	if cap(s.tpos) < n {
		s.tpos = make([]uint32, n) //lint:ignore hotalloc amortized pooled growth; steady state reuses the scratch capacity
	}
	s.tpos = s.tpos[:n]
	return s.tpos
}

// tallyReset prepares the compact tally view for T steps.
func (s *scratch) tallyReset(T int) {
	if cap(s.tallyOff) < T+1 {
		s.tallyOff = make([]int32, T+1) //lint:ignore hotalloc amortized pooled growth; steady state reuses the scratch capacity
	}
	s.tallyOff = s.tallyOff[:T+1]
	s.tallyOff[0] = 0
	s.tallyV = s.tallyV[:0]
	s.tallyCnt = s.tallyCnt[:0]
	s.tallyRcnt = s.tallyRcnt[:0]
}

// newWalkLanes returns n lanes whose position matrices, size entries
// each, are cut from one backing array.
func newWalkLanes(n, size int) []graph.WalkLane {
	pos := make([]uint32, n*size)      //lint:ignore hotalloc allocated once per pooled scratch, on its first uncached block
	lanes := make([]graph.WalkLane, n) //lint:ignore hotalloc allocated once per pooled scratch, on its first uncached block
	for l := range lanes {
		lanes[l].Out = pos[l*size : (l+1)*size]
	}
	return lanes
}

// hitBufs returns dotPositions' hit tally for a support of S vertices: S
// counters and a bitset over them, all zero.
func (s *scratch) hitBufs(S int) (cnt []uint32, set []uint64) {
	if len(s.hitCnt) < S {
		// The outgoing buffers are all zero, so nothing carries over.
		s.hitCnt = make([]uint32, 2*S)         //lint:ignore hotalloc amortized pooled growth; steady state reuses the scratch capacity
		s.hitSet = make([]uint64, (2*S+63)>>6) //lint:ignore hotalloc amortized pooled growth; steady state reuses the scratch capacity
	}
	return s.hitCnt[:S], s.hitSet[:(S+63)>>6]
}

// distBuf returns the dense distance array (all entries -1). The caller
// must pair every fill with resetDist.
func (s *scratch) distBuf() []int32 {
	if s.dist == nil {
		s.dist = make([]int32, s.n)
		for i := range s.dist {
			s.dist[i] = -1
		}
	}
	return s.dist
}

// resetDist cleans the distance entries touched by the last ball BFS.
func (s *scratch) resetDist() {
	for _, v := range s.ball {
		s.dist[v] = -1
	}
	s.ball = s.ball[:0]
}

// floatBuf grows buf to n entries, all zero.
func floatBuf(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// getScratch takes a scratch from the snapshot's pool.
func (e *Snapshot) getScratch() *scratch {
	e.poolGets.Add(1)
	return e.pool.Get().(*scratch)
}

// putScratch returns a scratch to the pool.
func (e *Snapshot) putScratch(s *scratch) {
	e.poolPuts.Add(1)
	e.pool.Put(s)
}
