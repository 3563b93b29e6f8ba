package core

import (
	"math/bits"

	"repro/internal/graph"
	"repro/internal/rng"
)

// scratch bundles every reusable buffer of the query and preprocess hot
// paths: walk position arrays, the dense accumulator the push and the
// linear scorer share, an epoch-marked dense tally (the allocation-free
// replacement for the old map[uint32]-based tallies), dense BFS distances,
// walk distributions, and the per-query candidate / bound / score working
// sets.
//
// Engines hand scratches out of a sync.Pool (getScratch / putScratch), so
// after warm-up a query performs near-zero allocations: the only escaping
// allocation is the result slice itself. A scratch is owned by exactly one
// goroutine at a time: a query's, or a preprocess chunk's.
type scratch struct {
	n int

	// Epoch-marked dense tally of candidate deduplication (collectCandidates)
	// and the single-pair estimator. mark[v] == epoch means v is part of
	// the current tally and cnt[v] is valid; bumping epoch clears the whole
	// tally in O(1). touched lists the marked vertices that tallyCount
	// counted, so results can be extracted in O(support), never O(n). mark
	// and cnt are allocated by the first beginTally, so a linear scratch
	// never pays their 8n bytes.
	mark    []uint32
	epoch   uint32
	cnt     []int32
	touched []uint32

	// orderTouched's per-bucket counts and cursors.
	bucket []uint32

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

	// wd holds the query-side walk distribution. peak[t] is α*(u,t) =
	// max_w D_ww·p̂_u,t(w) for each nonempty step t of the distribution a
	// builder last filled on this scratch, which horizon reads.
	wd   walkDist
	peak []float64

	// slots is the scoring index of the distribution a scan scores
	// against, built once per scan (search, shardScan).
	slots slotIndex

	// lin is the dense accumulator of the push's steps and the backward
	// levels, allocated on first use (acc); srcs holds one level's surviving
	// sources, lifted out of lin before its scatter (backwardInto).
	lin  rowAcc
	srcs []source

	// The single-pair estimator's generator (singlepair.go), seeded per
	// pair (pairSeed); the candidate walks draw from lane generators.
	rng rng.Source

	// Query working sets.
	cands  []uint32
	bounds []boundedCand
	scores []ShardCand

	// Lane kernel buffers (lanes.go): the lanes of one full-R group and of
	// one rough section (each lane owns a fixed T-row position matrix;
	// allocated on first use, so linear scratches never pay for them), and
	// the index-space hit tally of dotPositions — counters and a bitset
	// over one step's support, all zero between calls.
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

// scratchSupport is the support a new accumulator's touched list starts
// with room for, so that a scratch the pool has just made does not grow it
// a doubling at a time through its first query's steps.
const scratchSupport = 1024

func newScratch(n int) *scratch {
	return &scratch{n: n}
}

// beginTally starts a fresh tally: previous marks become stale in O(1).
// The first one allocates the tally's dense arrays.
func (s *scratch) beginTally() {
	if s.mark == nil {
		s.mark = make([]uint32, s.n) // once per scratch that tallies
		s.cnt = make([]int32, s.n)   // likewise
	}
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

// singleBucketMax is the largest support orderTouched keeps in one
// bucket: below it a plain insertion sort beats counting into buckets.
const singleBucketMax = 12

// bucketing picks orderTouched's bucket geometry for a support of S
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

// orderTouched writes the distinct vertex ids of src into dst, of the same
// length, in ascending order, in O(S) expected time: one counting pass by
// bucket (b = w >> shift, bucketing), a prefix sum, a scatter into dst, and
// an insertion sort that only ever moves a vertex inside its own bucket
// (buckets are already in order relative to each other). Ids crowded into
// few buckets cost the insertion sort more, never correctness.
func (s *scratch) orderTouched(dst, src []uint32) {
	dst = dst[:len(src)]
	nb, shift := bucketing(s.n, len(src))
	if nb == 1 {
		// One bucket: nothing to count or scatter.
		copy(dst, src)
		insertionSort(dst)
		return
	}
	if cap(s.bucket) < nb+2 {
		s.bucket = make([]uint32, 2*nb+2) // amortized pooled growth; steady state reuses the scratch capacity
	}
	// counts live two slots up so that after the prefix sum cur[b+1] is
	// bucket b's start, and the scatter advances it to bucket b's end.
	cur := s.bucket[:nb+2]
	clear(cur)
	for _, w := range src {
		cur[(w>>shift)+2]++
	}
	for b := 2; b < len(cur); b++ {
		cur[b] += cur[b-1]
	}
	for _, w := range src {
		b := (w >> shift) + 1
		dst[cur[b]] = w
		cur[b]++
	}
	insertionSort(dst)
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

// newWalkLanes returns n lanes whose position matrices, size entries
// each, are cut from one backing array.
func newWalkLanes(n, size int) []graph.WalkLane {
	pos := make([]uint32, n*size)      // allocated once per pooled scratch, on its first Monte-Carlo block
	lanes := make([]graph.WalkLane, n) // allocated once per pooled scratch, on its first Monte-Carlo block
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
		s.hitCnt = make([]uint32, 2*S)         // amortized pooled growth; steady state reuses the scratch capacity
		s.hitSet = make([]uint64, (2*S+63)>>6) // amortized pooled growth; steady state reuses the scratch capacity
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
