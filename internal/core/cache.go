package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// This file is the one memory-bounded CLOCK cache behind both
// per-snapshot caches: candidate walk tallies keyed by candidate vertex
// (tally.go) and query plans keyed by query vertex (prolog.go). Both hold
// derived, deterministic data only — an entry is a pure function of
// (snapshot, vertex) — so a lookup changes where work happens, never what
// a query returns, and whether an insert lands is invisible in results.
//
// The hit path is a single atomic load from a per-vertex slot array: no
// locks, no hashing. Inserts and evictions lock one stripe of the vertex
// space at a time, never two. The byte budget is global, and so is
// eviction: an insert that finds the cache full sweeps its own stripe
// first and carries on into the others until the cache fits, so the only
// insert ever refused is one that cannot fit an otherwise empty cache.
// (Evicting from the inserting stripe alone — the previous rule — lets
// the other stripes hold the whole budget: a stripe swept empty can then
// never insert again, and its vertices are resampled on every query for
// the rest of the snapshot's life. See DESIGN.md §9.)

// cacheStripes is the number of independently locked CLOCK rings. Power
// of two so the stripe index is a mask of the mixed vertex id.
const cacheStripes = 64

// cacheEntry is one cached value with its CLOCK bookkeeping. key, size
// and val are immutable once the entry is published.
type cacheEntry[P any] struct {
	key uint32
	// size is the byte budget the entry charges.
	size int64
	// ref is the CLOCK reference bit: set on hit, cleared as the
	// eviction hand passes.
	ref atomic.Bool
	val P
}

// cacheStripe serializes inserts and evictions for one stripe of the
// vertex space and holds that stripe's CLOCK ring. Lookups never touch
// it — they go straight to the slot array.
type cacheStripe[P any] struct {
	mu   sync.Mutex
	ring []*cacheEntry[P]
	hand int
}

// clockCache is a per-Snapshot, memory-bounded cache of one value per
// vertex. The slot array itself (8 bytes per graph vertex) is fixed
// engine overhead, outside the budget.
type clockCache[P any] struct {
	maxBytes  int64
	bytes     atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	rejected  atomic.Int64
	slots     []atomic.Pointer[cacheEntry[P]]
	stripes   [cacheStripes]cacheStripe[P]
}

// CacheStats is a point-in-time snapshot of one cache's lifetime counters
// and footprint (all zero for a disabled cache) — the one definition: the
// root package aliases it and the HTTP tiers serialize it as it is.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Rejected counts inserts refused because the entry could not fit the
	// budget even with every ring empty. Anything but zero on a sanely
	// sized cache means vertices are being recomputed on every query.
	Rejected int64 `json:"rejected"`
	Entries  int   `json:"entries"`
	// BytesInUse is the approximate heap footprint of the cached
	// entries; it never exceeds BudgetBytes at quiescence.
	BytesInUse  int64 `json:"bytes_in_use"`
	BudgetBytes int64 `json:"budget_bytes"`
	// BuiltPushed and BuiltEmpty count the query plans built on a miss by
	// what their distribution came from — the push, or nothing at all for
	// a vertex without candidates. Prolog cache only (they sum to the
	// entries it was offered); always zero, and so absent from the JSON,
	// for the tally cache.
	BuiltPushed int64 `json:"built_pushed,omitempty"`
	BuiltEmpty  int64 `json:"built_empty,omitempty"`
	// StepsKept sums the horizons of those plans, so StepsKept /
	// BuiltPushed is the mean number of steps a query-side
	// distribution keeps of its T (bounds.go, horizon). Prolog cache only.
	StepsKept int64 `json:"steps_kept,omitempty"`
}

func newClockCache[P any](n int, maxBytes int64) *clockCache[P] {
	return &clockCache[P]{
		maxBytes: maxBytes,
		slots:    make([]atomic.Pointer[cacheEntry[P]], n),
	}
}

func stripeOf(key uint32) int {
	return int(rng.Mix(uint64(key)) & (cacheStripes - 1))
}

// get returns the cached entry for key, or nil. Lock-free; counts a hit
// or miss.
//
//lint:hotpath cache hit path: before every candidate simulation and at the top of every scan
func (c *clockCache[P]) get(key uint32) *cacheEntry[P] {
	if ent := c.slots[key].Load(); ent != nil {
		if !ent.ref.Load() {
			ent.ref.Store(true)
		}
		c.hits.Add(1)
		return ent
	}
	c.misses.Add(1)
	return nil
}

// put inserts ent unless its vertex is already cached (concurrent
// builders of the same vertex produce byte-identical entries, so first-in
// wins) and returns the number of entries evicted to make room. The
// caller has already computed from its own scratch copy, so correctness
// never depends on the insert landing.
func (c *clockCache[P]) put(ent *cacheEntry[P]) int {
	if c.slots[ent.key].Load() != nil {
		return 0
	}
	home := stripeOf(ent.key)
	evicted, ok := c.reserve(ent.size, home)
	if !ok {
		c.rejected.Add(1)
		return evicted
	}
	// Room is made before the home stripe is locked for publication, so
	// no two stripe locks are ever held together.
	sh := &c.stripes[home]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c.slots[ent.key].Load() != nil {
		c.bytes.Add(-ent.size)
		return evicted
	}
	ent.ref.Store(true)
	sh.ring = append(sh.ring, ent)
	c.slots[ent.key].Store(ent)
	return evicted
}

// reserve charges size bytes and makes the cache fit its budget again:
// reserve-then-evict, so concurrent inserts can never overshoot together.
// ok is false, and the charge rolled back, only when the entry alone
// exceeds the budget or every ring is empty and the cache still does not
// fit (reservations of other inserts in flight).
func (c *clockCache[P]) reserve(size int64, home int) (evicted int, ok bool) {
	if size > c.maxBytes {
		return 0, false
	}
	if c.bytes.Add(size) <= c.maxBytes {
		return 0, true
	}
	if evicted, ok = c.evict(home); !ok {
		c.bytes.Add(-size)
	}
	return evicted, ok
}

// evict sweeps the stripes one at a time, starting at home, until it sees
// the cache fit its budget (fit) or every ring empty, and returns the
// number of entries evicted. Having seen it fit once is enough for the
// caller's charge to stand: whatever pushes the cache over afterwards is
// a later reservation, whose owner evicts for it. The first two rounds
// honour reference bits — a referenced entry is spared once, its bit
// cleared, whichever stripe's overage it is paying for — and any later
// round (entries re-referenced as fast as they are swept) takes whatever
// the hand finds.
func (c *clockCache[P]) evict(home int) (evicted int, fit bool) {
	for round := 0; ; round++ {
		left := 0
		for i := 0; i < cacheStripes; i++ {
			if c.bytes.Load() <= c.maxBytes {
				return evicted, true
			}
			sh := &c.stripes[(home+i)&(cacheStripes-1)]
			sh.mu.Lock()
			evicted += c.sweepLocked(sh, round >= 2)
			left += len(sh.ring)
			sh.mu.Unlock()
		}
		if left == 0 {
			return evicted, c.bytes.Load() <= c.maxBytes
		}
	}
}

// sweepLocked moves the CLOCK hand at most once around the stripe's ring,
// evicting until the cache fits, and returns the number evicted. Unless
// force is set, a referenced entry gets a second chance: its bit is
// cleared and the hand moves on. A reader that loaded an entry just
// before its slot is cleared keeps using it — the payload is immutable,
// so the answer is unchanged. Caller holds sh.mu.
func (c *clockCache[P]) sweepLocked(sh *cacheStripe[P], force bool) int {
	evicted := 0
	for steps := len(sh.ring); steps > 0 && c.bytes.Load() > c.maxBytes; steps-- {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		ent := sh.ring[sh.hand]
		if !force && ent.ref.Load() {
			ent.ref.Store(false)
			sh.hand++
			continue
		}
		// slices.Delete zeroes the vacated tail slot; a plain append-shift
		// would leave a stale pointer there that keeps a later-evicted
		// entry reachable, outside the byte budget.
		sh.ring = slices.Delete(sh.ring, sh.hand, sh.hand+1)
		c.slots[ent.key].Store(nil)
		c.bytes.Add(-ent.size)
		c.evictions.Add(1)
		evicted++
	}
	return evicted
}

// stats aggregates the counters across stripes; all zero on a nil
// (disabled) cache.
func (c *clockCache[P]) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	st := CacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		Rejected:    c.rejected.Load(),
		BytesInUse:  c.bytes.Load(),
		BudgetBytes: c.maxBytes,
	}
	for i := range c.stripes {
		c.stripes[i].mu.Lock()
		st.Entries += len(c.stripes[i].ring)
		c.stripes[i].mu.Unlock()
	}
	return st
}
