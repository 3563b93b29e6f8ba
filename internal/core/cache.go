package core

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// This file implements the cross-query walk-tally cache. Because
// candidate walks are seeded per vertex (candSeed), a candidate's
// step-t position tally at R = RScore walks is a pure function of
// (snapshot, v): the cache stores that tally once and every later query
// scoring v replaces its O(T·R) walk simulation with an O(T·distinct)
// sorted dot product against the query-side distribution. The rough
// adaptive pass is served from the same entry — the walk-major
// simulation order guarantees the first RRough walks of the full stream
// are exactly the walks a rough-only simulation would have produced, so
// per-step counts restricted to that prefix (tallyEntry.rcnt) reproduce
// the rough estimate bit for bit.

// tallyShardCount is the number of independently locked eviction shards.
// Power of two so the shard index is a mask of the mixed vertex id.
const tallyShardCount = 64

// tallyEntry is one cached candidate tally: per-step sorted supports
// with full-stream and rough-prefix counts, in the same flat layout the
// scratch tally builders produce (tally.go). Entries are immutable after
// construction except for the CLOCK reference bit.
type tallyEntry struct {
	v uint32
	// rsteps is the number of leading steps with a nonempty rough-prefix
	// support; the rough dot product stops there.
	rsteps int32
	// off[t]..off[t+1] delimit step t's slice of verts/cnt/rcnt.
	off   []int32
	verts []uint32
	// cnt counts all RScore walks at each support vertex; rcnt counts
	// only the first RRough walks (0 when the rough prefix never visits
	// it). uint16 suffices: the cache is disabled when RScore > 65535.
	cnt  []uint16
	rcnt []uint16
	// size is the approximate heap footprint, fixed at construction.
	size int64
	// ref is the CLOCK reference bit: set on hit, cleared as the
	// eviction hand passes.
	ref atomic.Bool
}

// tallyEntryOverhead approximates the fixed per-entry footprint: the
// struct itself plus slice headers and ring bookkeeping.
const tallyEntryOverhead = 160

// entrySize returns the byte budget one entry charges.
func entrySize(T, support int) int64 {
	return tallyEntryOverhead + 4*int64(T+1) + 8*int64(support)
}

// tallyShard serializes inserts and evictions for one stripe of the
// vertex space and holds that stripe's CLOCK ring. Lookups never touch
// it — they go straight to the slot array.
type tallyShard struct {
	mu   sync.Mutex
	ring []*tallyEntry
	hand int
}

// tallyCache is a per-Snapshot, memory-bounded cache of candidate walk
// tallies. The hit path is a single atomic load from a per-vertex slot
// array — no locks, no hashing; inserts and evictions serialize per
// shard. The byte budget is enforced with reserve-then-evict accounting:
// an insert first charges its size, then evicts from its own shard until
// the cache fits, rolling the reservation back if the shard alone cannot
// make room. The slot array itself (8 bytes per graph vertex) is fixed
// engine overhead, outside the budget, like the γ table.
type tallyCache struct {
	maxBytes  int64
	bytes     atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	slots     []atomic.Pointer[tallyEntry]
	shards    [tallyShardCount]tallyShard
}

// CacheStats is a point-in-time snapshot of the tally-cache counters.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	// BytesInUse is the approximate heap footprint of the cached
	// entries; it never exceeds BudgetBytes at quiescence.
	BytesInUse  int64
	BudgetBytes int64
}

// maxTallyCount is the largest walk count a uint16 tally can represent.
const maxTallyCount = math.MaxUint16

func newTallyCache(n int, maxBytes int64) *tallyCache {
	return &tallyCache{
		maxBytes: maxBytes,
		slots:    make([]atomic.Pointer[tallyEntry], n),
	}
}

func (c *tallyCache) shard(v uint32) *tallyShard {
	return &c.shards[rng.Mix(uint64(v))&(tallyShardCount-1)]
}

// get returns the cached tally for v, or nil. Lock-free; counts a hit or
// miss.
//
//lint:hotpath cache hit path, consulted before every candidate simulation
func (c *tallyCache) get(v uint32) *tallyEntry {
	if ent := c.slots[v].Load(); ent != nil {
		if !ent.ref.Load() {
			ent.ref.Store(true)
		}
		c.hits.Add(1)
		return ent
	}
	c.misses.Add(1)
	return nil
}

// put inserts ent unless v is already cached (concurrent scorers of the
// same vertex build byte-identical entries, so first-in wins). It
// returns the number of entries evicted to make room. When the shard
// cannot free enough bytes the reservation is rolled back and the entry
// is simply not cached — the caller has already scored from its scratch
// copy, so correctness never depends on the insert landing.
func (c *tallyCache) put(ent *tallyEntry) int {
	sh := c.shard(ent.v)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c.slots[ent.v].Load() != nil {
		return 0
	}
	if c.bytes.Add(ent.size) > c.maxBytes {
		evicted := c.evictLocked(sh)
		if c.bytes.Load() > c.maxBytes {
			c.bytes.Add(-ent.size)
			return evicted
		}
		sh.insertLocked(c, ent)
		return evicted
	}
	sh.insertLocked(c, ent)
	return 0
}

// insertLocked publishes ent in its vertex slot and appends it to the
// CLOCK ring. Caller holds sh.mu.
func (sh *tallyShard) insertLocked(c *tallyCache, ent *tallyEntry) {
	ent.ref.Store(true)
	sh.ring = append(sh.ring, ent)
	c.slots[ent.v].Store(ent)
}

// evictLocked runs the CLOCK hand over the shard's ring until the cache
// fits its budget or the shard is empty, returning the number of entries
// evicted. Entries with the reference bit set get a second chance (the
// bit is cleared); after two full sweeps everything is evictable.
// A reader that loaded the entry just before its slot is cleared keeps
// scoring from it — entries are immutable, so the answer is unchanged.
// Caller holds sh.mu.
func (c *tallyCache) evictLocked(sh *tallyShard) int {
	evicted := 0
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
		// slices.Delete zeroes the vacated tail slot; a plain append-shift
		// would leave a stale pointer there that keeps a later-evicted
		// entry reachable, outside the byte budget.
		sh.ring = slices.Delete(sh.ring, sh.hand, sh.hand+1)
		c.slots[ent.v].Store(nil)
		c.bytes.Add(-ent.size)
		c.evictions.Add(1)
		evicted++
	}
	return evicted
}

// stats aggregates the counters across shards.
func (c *tallyCache) stats() CacheStats {
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

// carryForward seeds this cache with the entries of a previous
// snapshot's cache whose vertices keep is true for — the
// incremental-rebuild path passes the complement of the affected set, so
// queries against the new snapshot start warm for everything the delta
// could not have changed. Entries are shared by pointer (their payload
// is immutable). Vertices are visited in ascending order, so the carried
// ring order — and therefore later eviction order — is deterministic;
// the copy stops charging once the budget is reached. The receiver is
// fresh and unpublished, so no locks are needed.
func (c *tallyCache) carryForward(old *tallyCache, keep func(v uint32) bool) {
	for v := range old.slots {
		ent := old.slots[v].Load()
		if ent == nil || !keep(uint32(v)) {
			continue
		}
		if c.bytes.Load()+ent.size > c.maxBytes {
			continue
		}
		c.bytes.Add(ent.size)
		sh := c.shard(uint32(v))
		sh.ring = append(sh.ring, ent)
		c.slots[v].Store(ent)
	}
}
