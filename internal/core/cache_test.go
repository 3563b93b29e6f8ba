package core

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// dropCache zeroes the cache counters of a QueryStats so the remaining
// fields can be compared between cache-on and cache-off runs (the cache
// changes which work is redone, never what the query computes).
func dropCache(st QueryStats) QueryStats {
	st.CacheHits, st.CacheMisses, st.CacheEvictions = 0, 0, 0
	return st
}

func sameResults(t *testing.T, label string, got, want []Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// The cache must be invisible in the output: for every query, results are
// byte-identical with the cache on or off, for any worker count, on both
// cold and warm passes. With an ample budget (no eviction) the full
// per-query stats — cache counters included — are deterministic too.
func TestCacheByteIdenticalTopK(t *testing.T) {
	g := graph.CopyingModel(3000, 6, 0.3, 11)
	build := func(cacheBytes int64, workers int) *Engine {
		p := DefaultParams()
		p.Seed = 17
		p.Workers = workers
		p.Strategy = CandidatesHybrid // wide candidate sets exercise the tally path
		p.CacheBytes = cacheBytes
		return Build(g, p)
	}
	queries := []uint32{0, 17, 999, 1500, 2999}

	off := build(0, 1)
	type ref struct {
		res   []Scored
		stats QueryStats
	}
	want := make([]ref, len(queries))
	for i, u := range queries {
		res, st := off.TopKStats(u, 20)
		want[i] = ref{res, st}
	}

	var warmStats []QueryStats // cache counters of workers=1, compared across worker counts
	for _, workers := range []int{1, 2, 8} {
		on := build(1<<30, workers)
		for pass := 0; pass < 2; pass++ {
			anyHits := false
			for i, u := range queries {
				res, st := on.TopKStats(u, 20)
				label := "workers=" + itoa(workers) + " pass=" + itoa(pass) + " u=" + itoa(int(u))
				sameResults(t, label, res, want[i].res)
				if dropCache(st) != want[i].stats {
					t.Fatalf("%s: stats %+v, want %+v", label, dropCache(st), want[i].stats)
				}
				if st.CacheEvictions != 0 {
					t.Fatalf("%s: evictions under an ample budget: %+v", label, st)
				}
				if pass == 1 {
					anyHits = anyHits || st.CacheHits > 0
					if workers == 1 {
						warmStats = append(warmStats, st)
					}
				}
			}
			if pass == 1 && !anyHits {
				t.Fatalf("workers=%d: warm pass recorded no cache hits", workers)
			}
		}
		if cs := on.CacheStats(); cs.Hits == 0 || cs.Entries == 0 || cs.BytesInUse <= 0 {
			t.Fatalf("workers=%d: implausible cache stats %+v", workers, cs)
		} else if cs.BytesInUse > cs.BudgetBytes {
			t.Fatalf("workers=%d: bytes in use %d exceed budget %d", workers, cs.BytesInUse, cs.BudgetBytes)
		}
	}

	// Under an ample budget the warm-pass cache counters are themselves
	// deterministic across worker counts (no eviction → no recompute
	// races): re-run workers=8 warm queries and compare to workers=1.
	on := build(1<<30, 8)
	for _, u := range queries {
		on.TopKStats(u, 20) // cold pass
	}
	for i, u := range queries {
		_, st := on.TopKStats(u, 20)
		if st != warmStats[i] {
			t.Fatalf("u=%d: warm stats %+v (workers=8), want %+v (workers=1)", u, st, warmStats[i])
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// Hammering a tiny cache must keep it inside its byte budget, actually
// evict, and still answer byte-identically to an uncached engine.
func TestCacheEvictionRespectsBudget(t *testing.T) {
	g := graph.CopyingModel(2000, 6, 0.3, 5)
	p := DefaultParams()
	p.Seed = 3
	p.Workers = 2
	p.Strategy = CandidatesHybrid
	off := Build(g, p)
	p.CacheBytes = 32 << 10 // a handful of entries at most
	on := Build(g, p)

	// A skewed query stream: hot head plus a moving tail, so entries are
	// both re-hit and displaced.
	queries := make([]uint32, 0, 120)
	for i := 0; i < 40; i++ {
		queries = append(queries, uint32(i%5))          // hot head
		queries = append(queries, uint32(50+i*17)%2000) // cold tail
		queries = append(queries, uint32(i))
	}
	for _, u := range queries {
		wantRes, wantSt := off.TopKStats(u, 10)
		gotRes, gotSt := on.TopKStats(u, 10)
		sameResults(t, "u="+itoa(int(u)), gotRes, wantRes)
		if dropCache(gotSt) != wantSt {
			t.Fatalf("u=%d: stats %+v, want %+v", u, dropCache(gotSt), wantSt)
		}
		if cs := on.CacheStats(); cs.BytesInUse > cs.BudgetBytes {
			t.Fatalf("u=%d: bytes in use %d exceed budget %d", u, cs.BytesInUse, cs.BudgetBytes)
		}
	}
	cs := on.CacheStats()
	if cs.Evictions == 0 {
		t.Fatalf("tiny budget never evicted: %+v", cs)
	}
	if cs.Entries == 0 || cs.BytesInUse <= 0 || cs.BytesInUse > cs.BudgetBytes {
		t.Fatalf("implausible post-hammer cache stats %+v", cs)
	}
}

// Queries through the cache while the dynamic engine rebuilds snapshots
// concurrently: no races (run under -race), no scratch leaks on any
// snapshot a query touched, and the final state answers exactly like a
// freshly built engine over the same edges.
func TestCacheDuringDynamicRefresh(t *testing.T) {
	const n = 400
	g := graph.CopyingModel(n, 4, 0.3, 9)
	p := DefaultParams()
	p.Seed = 5
	p.Workers = 2
	p.CacheBytes = 1 << 22
	d := NewDynamicFrom(g, p)
	defer d.Close()
	if err := d.Refresh(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	touched := map[*Snapshot]struct{}{}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			u := uint32(w)
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn, err := d.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				touched[sn] = struct{}{}
				mu.Unlock()
				sn.TopKStats(u%n, 10)
				u += 7
			}
		}(w)
	}
	for i := 0; i < 25; i++ {
		a := uint32((i * 31) % n)
		b := uint32((i*13 + 1) % n)
		if a == b {
			b = (b + 1) % n
		}
		if err := d.AddEdge(a, b); err != nil {
			t.Fatal(err)
		}
		if err := d.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	for sn := range touched {
		if gets, puts := sn.PoolBalance(); gets != puts {
			t.Fatalf("scratch leak on a queried snapshot: %d gets vs %d puts", gets, puts)
		}
	}

	// The settled dynamic engine matches a cold cache-off engine built on
	// the same final edge set.
	final, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var edges []graph.Edge
	final.Graph().Edges(func(u, v uint32) bool {
		edges = append(edges, graph.Edge{U: u, V: v})
		return true
	})
	pp := p
	pp.CacheBytes = 0
	ref := Build(graph.FromEdges(n, edges), pp)
	for _, u := range []uint32{0, 7, 99, 200, 399} {
		want, wantSt := ref.TopKStats(u, 10)
		got, gotSt := final.TopKStats(u, 10)
		sameResults(t, "settled u="+itoa(int(u)), got, want)
		if dropCache(gotSt) != wantSt {
			t.Fatalf("settled u=%d: stats %+v, want %+v", u, dropCache(gotSt), wantSt)
		}
	}
}

// An incremental refresh must carry cached tallies forward for vertices
// untouched by the delta — and the carried entries must still produce
// byte-identical answers on the updated graph.
func TestCacheCarryForwardAcrossIncrementalRefresh(t *testing.T) {
	const n = 1500
	g := graph.CopyingModel(n, 5, 0.3, 21)
	p := DefaultParams()
	p.Seed = 11
	p.Workers = 2
	p.Strategy = CandidatesHybrid
	p.CacheBytes = 1 << 26
	d := NewDynamicFrom(g, p)
	defer d.Close()
	if err := d.Refresh(); err != nil {
		t.Fatal(err)
	}

	warm, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for u := uint32(0); u < 30; u++ {
		warm.TopKStats(u, 10)
	}
	if cs := warm.CacheStats(); cs.Entries == 0 {
		t.Fatalf("warmup populated nothing: %+v", cs)
	}

	// One new edge: the affected set is a T-step out-neighbourhood, tiny
	// compared to the graph, so the refresh is incremental and most of
	// the cache survives.
	if err := d.AddEdge(1200, 7); err != nil {
		t.Fatal(err)
	}
	incBefore, fullBefore := d.Refreshes()
	if err := d.Refresh(); err != nil {
		t.Fatal(err)
	}
	incAfter, fullAfter := d.Refreshes()
	if incAfter != incBefore+1 || fullAfter != fullBefore {
		t.Fatalf("expected one incremental refresh, got inc %d->%d full %d->%d",
			incBefore, incAfter, fullBefore, fullAfter)
	}

	next, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if next == warm {
		t.Fatal("refresh did not publish a new snapshot")
	}
	carried := next.CacheStats()
	if carried.Entries == 0 {
		t.Fatalf("no entries carried forward: %+v", carried)
	}
	if carried.BytesInUse > carried.BudgetBytes {
		t.Fatalf("carried bytes %d exceed budget %d", carried.BytesInUse, carried.BudgetBytes)
	}

	// Queries on the updated graph — served partly from carried entries —
	// must match a cold cache-off engine built on the updated edge set.
	var edges []graph.Edge
	next.Graph().Edges(func(u, v uint32) bool {
		edges = append(edges, graph.Edge{U: u, V: v})
		return true
	})
	pp := p
	pp.CacheBytes = 0
	ref := Build(graph.FromEdges(n, edges), pp)
	for u := uint32(0); u < 30; u++ {
		want, wantSt := ref.TopKStats(u, 10)
		got, gotSt := next.TopKStats(u, 10)
		sameResults(t, "post-carry u="+itoa(int(u)), got, want)
		if dropCache(gotSt) != wantSt {
			t.Fatalf("post-carry u=%d: stats %+v, want %+v", u, dropCache(gotSt), wantSt)
		}
	}
}

// TopKBatch must agree with issuing the same queries one at a time:
// identical results, identical stats up to cache attribution (concurrent
// queries may race on who records a shared candidate's miss).
func TestTopKBatchMatchesSequential(t *testing.T) {
	g := graph.CopyingModel(2000, 6, 0.3, 13)
	p := DefaultParams()
	p.Seed = 23
	p.Workers = 4
	p.Strategy = CandidatesHybrid
	p.CacheBytes = 1 << 26
	e := Build(g, p)

	us := []uint32{5, 42, 42, 300, 1999, 5, 777}
	res, sts := e.TopKBatch(us, 15)
	if len(res) != len(us) || len(sts) != len(us) {
		t.Fatalf("batch sizes %d/%d, want %d", len(res), len(sts), len(us))
	}
	for i, u := range us {
		want, wantSt := e.TopKStats(u, 15)
		sameResults(t, "batch u="+itoa(int(u)), res[i], want)
		if dropCache(sts[i]) != dropCache(wantSt) {
			t.Fatalf("batch u=%d: stats %+v, want %+v", u, dropCache(sts[i]), dropCache(wantSt))
		}
	}

	// Cancellation discards partials.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if r, s, err := e.TopKBatchCtx(ctx, us, 15); err == nil || r != nil || s != nil {
		t.Fatalf("cancelled batch returned (%v, %v, %v), want nils and an error", r, s, err)
	}
}

// keysOfStripe returns the first count vertex ids below n that hash to the
// given stripe (home true) or to any other (home false).
func keysOfStripe(n uint32, stripe int, home bool, count int) []uint32 {
	var out []uint32
	for v := uint32(0); v < n && len(out) < count; v++ {
		if (stripeOf(v) == stripe) == home {
			out = append(out, v)
		}
	}
	return out
}

// The budget is global, so eviction must be too: an insert whose own
// stripe holds nothing to evict takes its room from the stripes that hold
// the budget. (Evicting from the inserting stripe alone refused it — for
// the rest of the snapshot's life, once a sweep had emptied that stripe.)
func TestCacheInsertNeverStarvedByOtherStripes(t *testing.T) {
	const n = 1 << 14
	const x = uint32(0)
	home := stripeOf(x)
	c := newClockCache[tally](n, 100*100)
	others := keysOfStripe(n, home, false, 100)
	for _, v := range others {
		c.put(&tallyEntry{key: v, size: 100})
	}
	if st := c.stats(); st.Entries != 100 || st.BytesInUse != st.BudgetBytes || len(c.stripes[home].ring) != 0 {
		t.Fatalf("setup: %+v with %d entries in the home stripe, want a full budget held elsewhere", st, len(c.stripes[home].ring))
	}
	if evicted := c.put(&tallyEntry{key: x, size: 300}); evicted != 3 {
		t.Fatalf("put evicted %d entries, want 3", evicted)
	}
	st := c.stats()
	if c.slots[x].Load() == nil || st.Rejected != 0 || st.Evictions != 3 || st.Entries != 98 || st.BytesInUse != st.BudgetBytes {
		t.Fatalf("insert into an empty stripe of a full cache: cached=%v, %+v", c.slots[x].Load() != nil, st)
	}

	// Only an entry no amount of eviction can fit is refused, and it
	// costs nobody their place.
	if evicted := c.put(&tallyEntry{key: n - 1, size: 100*100 + 1}); evicted != 0 {
		t.Fatalf("oversize put evicted %d entries", evicted)
	}
	if st := c.stats(); st.Rejected != 1 || st.Entries != 98 || c.slots[n-1].Load() != nil {
		t.Fatalf("oversize insert: %+v", st)
	}
}

// A referenced entry in a stripe that merely pays for another stripe's
// overage gets CLOCK's second chance like one in the inserting stripe:
// the first round clears its bit and passes, and takes cold entries
// wherever they are; only when nothing cold is left does it go.
func TestCacheHotEntrySurvivesForeignEviction(t *testing.T) {
	const n = 1 << 14
	const x = uint32(0)
	home := stripeOf(x)
	next := (home + 1) & (cacheStripes - 1)
	c := newClockCache[tally](n, 4*100)
	hot := keysOfStripe(n, next, true, 2)
	var cold []uint32
	for _, v := range keysOfStripe(n, home, false, 64) {
		if stripeOf(v) != next && len(cold) < 2 {
			cold = append(cold, v)
		}
	}
	for _, v := range append(append([]uint32{}, hot...), cold...) {
		c.put(&tallyEntry{key: v, size: 100})
	}
	for _, v := range cold {
		c.slots[v].Load().ref.Store(false) // inserted referenced; never hit since
	}
	for _, v := range hot {
		if c.get(v) == nil {
			t.Fatalf("hot entry %d missing", v)
		}
	}

	// The sweep starts at x's empty stripe and reaches the hot stripe
	// first: it must pass over it and take a cold entry further on.
	c.put(&tallyEntry{key: x, size: 100})
	for _, v := range hot {
		if c.slots[v].Load() == nil {
			t.Fatalf("hot entry %d evicted on the first round, with cold entries left", v)
		}
	}
	if st := c.stats(); st.Evictions != 1 || st.Rejected != 0 || c.slots[x].Load() == nil {
		t.Fatalf("after one insert: %+v", st)
	}

	// With nothing cold left the once-spared entries pay.
	c.maxBytes = 100
	c.evict(home)
	if st := c.stats(); st.Entries != 1 || st.BytesInUse != 100 {
		t.Fatalf("shrunk to one entry: %+v", st)
	}
}

// grow charges a published entry's new payload under the same budget, and
// charges nothing for an entry that is already gone.
func TestCacheGrow(t *testing.T) {
	c := newClockCache[tally](1024, 1000)
	a, b := &tallyEntry{key: 1, size: 400}, &tallyEntry{key: 2, size: 400}
	c.put(a)
	c.put(b)
	a.ref.Store(false)
	c.grow(b, 300) // 1100 > 1000: the unreferenced entry goes
	if st := c.stats(); st.BytesInUse != 700 || st.Entries != 1 || c.slots[1].Load() != nil || b.size != 700 {
		t.Fatalf("after growing b: %+v, b.size=%d", st, b.size)
	}
	c.grow(a, 300) // evicted: no charge
	if st := c.stats(); st.BytesInUse != 700 || a.size != 400 {
		t.Fatalf("growing an evicted entry charged the cache: %+v, a.size=%d", st, a.size)
	}
}

// TestCacheStarvationReplica replays the benchmark's web-batch-cached
// request stream in process — the web graph, Zipf(1.1) popularity spread
// over the graph, TopKBatch of 16, the tally cache at 256 MiB, the prolog
// cache at its default — for 400 000 queries. The prolog cache churns
// the whole time (the Zipf tail overflows it), and the stream's most
// popular vertex has by far the largest entry. With eviction confined to
// the inserting stripe, that vertex's stripe was eventually swept empty
// while the others held the budget, and from then on every query at it —
// the hottest vertex of the stream — resampled its distribution and threw
// it away: hit ratio down, hundreds of kilobytes allocated per miss. So:
// no insert refused, and the last quarter of the run must look like the
// second (hit ratio not lower, allocation per query flat ±20 %). One
// worker: starvation is a property of where eviction looks, not of
// concurrency, and with two the order in which a batch's inserts reach
// the CLOCK hand moves the late ratio from run to run by about the margin
// below (0.830 to 0.842 over seven runs); with one the run repeats exactly
// (recorded with the exact query side: 0.8427 then 0.8411, 735 then 736 B a
// query; 64 % of its misses are pushed exactly, 31 % have no candidate).
func TestCacheStarvationReplica(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("400 000 queries on a 100 000-vertex graph")
	}
	const n, total, batch, span = 100000, 400000, 16, 100000
	p := DefaultParams()
	p.Seed = 1
	p.Workers = 1
	p.CacheBytes = 256 << 20
	e := Build(graph.CopyingModel(n, 8, 0.3, 1), p)
	stream := zipfStream(n, total, 1.1, rng.Mix(3))

	type mark struct {
		prolog CacheStats
		alloc  uint64
	}
	marks := map[int]mark{}
	var ms runtime.MemStats
	for q := 0; q <= total; q += batch {
		if q%span == 0 {
			runtime.ReadMemStats(&ms)
			marks[q] = mark{e.PrologStats(), ms.TotalAlloc}
		}
		if q < total {
			e.TopKBatch(stream[q:q+batch], 20)
		}
	}
	hitRatio := func(a, b mark) float64 {
		h, m := b.prolog.Hits-a.prolog.Hits, b.prolog.Misses-a.prolog.Misses
		return float64(h) / float64(h+m)
	}
	allocPerQuery := func(a, b mark) float64 { return float64(b.alloc-a.alloc) / span }
	early, late := hitRatio(marks[span], marks[2*span]), hitRatio(marks[3*span], marks[4*span])
	earlyB, lateB := allocPerQuery(marks[span], marks[2*span]), allocPerQuery(marks[3*span], marks[4*span])
	ps, cs := e.PrologStats(), e.CacheStats()
	t.Logf("prolog %+v", ps)
	t.Logf("tally  %+v", cs)
	t.Logf("queries [100k,200k): prolog hit ratio %.4f, %.0f B allocated a query; [300k,400k): %.4f, %.0f B", early, earlyB, late, lateB)
	if ps.Rejected != 0 || cs.Rejected != 0 {
		t.Errorf("refused inserts: prolog %d, tally %d", ps.Rejected, cs.Rejected)
	}
	if ps.Evictions == 0 {
		t.Errorf("the prolog cache never evicted; the replica no longer overflows it: %+v", ps)
	}
	// The two spans draw different tails; their ratios differ by a tenth
	// of a point either way. The hottest vertex alone is 13 % of the stream.
	if late < early-0.01 {
		t.Errorf("prolog hit ratio fell from %.4f to %.4f", early, late)
	}
	if lateB < 0.8*earlyB || lateB > 1.2*earlyB {
		t.Errorf("allocation per query moved from %.0f B to %.0f B", earlyB, lateB)
	}
}
