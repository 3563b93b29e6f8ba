package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// This file implements the per-snapshot query-prolog cache. The query
// side of every scan (search, shard scan, threshold) begins by sampling
// RAlpha walks from the query vertex u into a per-step walk
// distribution (sampleWalkDistInto) — the single most expensive piece
// of query setup, and a pure function of (snapshot, u): the walks come
// from queryRNG(u), which is derived only from Params.Seed and u, and
// the resulting distribution is consumed strictly read-only afterwards.
// Caching an immutable deep copy per vertex therefore changes where the
// sampling work happens, never what any query returns — and in the
// sharded deployment, where every shard repeats the identical prolog
// for the same query, it removes the dominant duplicated cost.
//
// The structure mirrors the candidate tally cache (cache.go): lock-free
// hits through a per-vertex atomic slot array, striped mutexes for
// insert/evict, CLOCK eviction, reserve-then-evict byte accounting, and
// pointer-sharing carry-forward across incremental rebuilds.

// prologEntry is one cached query-side walk distribution. The wd copy
// is flat-backed (one allocation holds every step's vertices, walk counts
// and bucket directory, another the per-step slice headers) and immutable
// after construction except for the CLOCK reference bit.
type prologEntry struct {
	u    uint32
	wd   walkDist
	size int64
	ref  atomic.Bool
}

// prologEntryOverhead approximates the fixed per-entry footprint (struct
// and ring bookkeeping), and prologStepOverhead the per-step one (three
// slice headers and the shift byte).
const (
	prologEntryOverhead = 200
	prologStepOverhead  = 76
)

// newPrologEntry deep-copies the sampled distribution wd into a
// flat-backed immutable entry. It charges 8 bytes per support vertex
// (id + walk count) plus 4 per directory offset. A step has no more buckets
// than support vertices (bucketing) and one closing offset, so the charge
// stays within 12 bytes a vertex — what the float64-mass layout cost
// without a directory — plus 4 a step.
func newPrologEntry(u uint32, wd *walkDist) *prologEntry {
	T := wd.T
	words := 0
	for t := 0; t < T; t++ {
		words += 2*len(wd.verts[t]) + len(wd.dir[t])
	}
	back := make([]uint32, 0, words)
	clone := func(xs []uint32) []uint32 {
		lo := len(back)
		back = append(back, xs...)
		return back[lo:len(back):len(back)]
	}
	rows := make([][]uint32, 3*T)
	ent := &prologEntry{
		u: u,
		wd: walkDist{
			T:       T,
			verts:   rows[:T:T],
			dir:     rows[T : 2*T : 2*T],
			shift:   slices.Clone(wd.shift),
			sampled: true,
			invR:    wd.invR,
			cnt:     rows[2*T:],
		},
		size: prologEntryOverhead + prologStepOverhead*int64(T) + 4*int64(words),
	}
	for t := 0; t < T; t++ {
		// A step's directory, vertices and counts sit next to each other:
		// one lookup touches all three.
		ent.wd.dir[t] = clone(wd.dir[t])
		ent.wd.verts[t] = clone(wd.verts[t])
		ent.wd.cnt[t] = clone(wd.cnt[t])
	}
	return ent
}

// prologGet returns the cached prolog entry for u, nil-safe on a
// disabled cache.
func (e *Snapshot) prologGet(u uint32) *prologEntry {
	if e.prolog == nil {
		return nil
	}
	return e.prolog.get(u)
}

// prologPut publishes a deep copy of the freshly sampled distribution,
// nil-safe on a disabled cache.
func (e *Snapshot) prologPut(u uint32, wd *walkDist) {
	if e.prolog == nil {
		return
	}
	e.prolog.put(newPrologEntry(u, wd))
}

type prologShard struct {
	mu   sync.Mutex
	ring []*prologEntry
	hand int
}

// prologCache is the memory-bounded per-snapshot prolog cache. See the
// file comment; the concurrency and accounting rules are those of
// tallyCache.
type prologCache struct {
	maxBytes  int64
	bytes     atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	slots     []atomic.Pointer[prologEntry]
	shards    [tallyShardCount]prologShard
}

func newPrologCache(n int, maxBytes int64) *prologCache {
	return &prologCache{
		maxBytes: maxBytes,
		slots:    make([]atomic.Pointer[prologEntry], n),
	}
}

func (c *prologCache) shard(u uint32) *prologShard {
	return &c.shards[rng.Mix(uint64(u))&(tallyShardCount-1)]
}

// get returns the cached prolog for u, or nil. Lock-free; counts a hit
// or miss.
//
//lint:hotpath prolog cache hit path, consulted at the top of every scan
func (c *prologCache) get(u uint32) *prologEntry {
	if ent := c.slots[u].Load(); ent != nil {
		if !ent.ref.Load() {
			ent.ref.Store(true)
		}
		c.hits.Add(1)
		return ent
	}
	c.misses.Add(1)
	return nil
}

// put inserts ent unless u is already cached (concurrent queries at the
// same vertex build byte-identical entries, so first-in wins). When the
// stripe cannot free enough bytes the reservation is rolled back and
// the entry is not cached — the caller has already sampled into its own
// scratch, so correctness never depends on the insert landing.
func (c *prologCache) put(ent *prologEntry) {
	sh := c.shard(ent.u)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c.slots[ent.u].Load() != nil {
		return
	}
	if c.bytes.Add(ent.size) > c.maxBytes {
		c.evictLocked(sh)
		if c.bytes.Load() > c.maxBytes {
			c.bytes.Add(-ent.size)
			return
		}
	}
	ent.ref.Store(true)
	sh.ring = append(sh.ring, ent)
	c.slots[ent.u].Store(ent)
}

// evictLocked runs the CLOCK hand over the stripe's ring until the
// cache fits its budget or the stripe is empty. Caller holds sh.mu.
// A reader that loaded an entry just before its slot is cleared keeps
// using it — entries are immutable, so the answer is unchanged.
func (c *prologCache) evictLocked(sh *prologShard) {
	spared := 0
	for c.bytes.Load() > c.maxBytes && len(sh.ring) > 0 {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		ent := sh.ring[sh.hand]
		if ent.ref.Load() && spared < 2*len(sh.ring) {
			ent.ref.Store(false)
			sh.hand++
			spared++
			continue
		}
		// slices.Delete, not an append-shift: see tallyCache.evictLocked.
		sh.ring = slices.Delete(sh.ring, sh.hand, sh.hand+1)
		c.slots[ent.u].Store(nil)
		c.bytes.Add(-ent.size)
		c.evictions.Add(1)
	}
}

// stats aggregates the counters across stripes.
func (c *prologCache) stats() CacheStats {
	st := CacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		BytesInUse:  c.bytes.Load(),
		BudgetBytes: c.maxBytes,
	}
	for i := range c.shards {
		c.shards[i].mu.Lock()
		st.Entries += len(c.shards[i].ring)
		c.shards[i].mu.Unlock()
	}
	return st
}

// carryForward seeds this cache with the previous snapshot's entries
// whose vertices keep is true for. A prolog entry depends only on the
// query vertex's T-step walk neighbourhood — the same dependency
// footprint as a candidate tally, so the incremental-rebuild path can
// pass the same keep predicate it passes the tally cache. Entries are
// shared by pointer (immutable payload); vertices are visited in
// ascending order so the carried ring order is deterministic. The
// receiver is fresh and unpublished, so no locks are needed.
func (c *prologCache) carryForward(old *prologCache, keep func(u uint32) bool) {
	for u := range old.slots {
		ent := old.slots[u].Load()
		if ent == nil || !keep(uint32(u)) {
			continue
		}
		if c.bytes.Load()+ent.size > c.maxBytes {
			continue
		}
		c.bytes.Add(ent.size)
		sh := c.shard(uint32(u))
		sh.ring = append(sh.ring, ent)
		c.slots[u].Store(ent)
	}
}
