package core

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
)

// The prolog cache must be invisible in the output: results AND the full
// per-query stats are byte-identical with the cache enabled or disabled,
// cold and warm, at any worker count — the cached distribution replaces
// a resampling that would have produced the exact same bits.
func TestPrologByteIdenticalTopK(t *testing.T) {
	g := graph.CopyingModel(2500, 6, 0.3, 13)
	build := func(prologBytes int64, workers int) *Engine {
		p := DefaultParams()
		p.Seed = 23
		p.Workers = workers
		p.PrologBytes = prologBytes
		return Build(g, p)
	}
	queries := []uint32{0, 42, 42, 1200, 2499, 42}

	off := build(-1, 1)
	if off.PrologStats() != (CacheStats{}) {
		t.Fatalf("disabled prolog cache reports %+v", off.PrologStats())
	}
	type ref struct {
		res   []Scored
		stats QueryStats
	}
	want := make([]ref, len(queries))
	for i, u := range queries {
		res, st := off.TopKStats(u, 20)
		want[i] = ref{res, st}
	}

	for _, workers := range []int{1, 4} {
		on := build(1<<30, workers)
		for pass := 0; pass < 2; pass++ {
			for i, u := range queries {
				res, st := on.TopKStats(u, 20)
				label := "workers=" + itoa(workers) + " pass=" + itoa(pass) + " u=" + itoa(int(u))
				sameResults(t, label, res, want[i].res)
				if st != want[i].stats {
					t.Fatalf("%s: stats %+v, want %+v", label, st, want[i].stats)
				}
			}
		}
		ps := on.PrologStats()
		// Six queries per pass over four distinct vertices, two passes:
		// four misses, the rest hits.
		if ps.Misses != 4 || ps.Hits != int64(2*len(queries)-4) {
			t.Fatalf("workers=%d: prolog counters %+v", workers, ps)
		}
		if ps.Entries != 4 || ps.Evictions != 0 {
			t.Fatalf("workers=%d: prolog occupancy %+v", workers, ps)
		}
	}
}

// The shard scan filters the same query plan, so fragments served with a
// warm prolog cache must match a cold shard-less engine fragment for
// fragment and stats alike.
func TestPrologByteIdenticalShardScan(t *testing.T) {
	g := graph.CopyingModel(1500, 5, 0.3, 7)
	p := DefaultParams()
	p.Seed = 5
	off := Build(g, p)
	offP := p
	offP.PrologBytes = -1
	cold := Build(g, offP)

	for _, u := range []uint32{3, 700, 700, 1499} {
		for _, r := range [][2]uint32{{0, 750}, {750, 1500}} {
			wantFrag, wantStats, err := cold.ShardScanCtx(context.Background(), u, p.Theta, r[0], r[1], nil)
			if err != nil {
				t.Fatal(err)
			}
			gotFrag, gotStats, err := off.ShardScanCtx(context.Background(), u, p.Theta, r[0], r[1], nil)
			if err != nil {
				t.Fatal(err)
			}
			if gotStats != wantStats {
				t.Fatalf("u=%d range=%v: stats %+v, want %+v", u, r, gotStats, wantStats)
			}
			if len(gotFrag) != len(wantFrag) {
				t.Fatalf("u=%d range=%v: %d rows, want %d", u, r, len(gotFrag), len(wantFrag))
			}
			for i := range wantFrag {
				if gotFrag[i] != wantFrag[i] {
					t.Fatalf("u=%d range=%v row %d: %+v, want %+v", u, r, i, gotFrag[i], wantFrag[i])
				}
			}
		}
	}
}

// Concurrent queries at the same vertex race get/put; first-in wins and
// everyone must score from a byte-identical distribution. Run with
// -race this doubles as the lifecycle check for the shared entries.
func TestPrologConcurrentSameVertex(t *testing.T) {
	g := graph.CopyingModel(1200, 5, 0.3, 3)
	p := DefaultParams()
	p.Seed = 9
	eng := Build(g, p)
	want := eng.TopK(77, 15)

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := eng.TopK(77, 15)
			if len(got) != len(want) {
				errs <- "length mismatch"
				return
			}
			for j := range want {
				if got[j] != want[j] {
					errs <- "result mismatch"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	ps := eng.PrologStats()
	if ps.Misses+ps.Hits != 17 {
		t.Fatalf("prolog counters %+v, want 17 lookups", ps)
	}
	if ps.Entries != 1 {
		t.Fatalf("prolog entries %d, want 1", ps.Entries)
	}
}

// A tiny budget must only suppress caching, never distort results, and
// the byte accounting must stay within budget at quiescence.
func TestPrologTinyBudget(t *testing.T) {
	g := graph.CopyingModel(800, 5, 0.3, 1)
	p := DefaultParams()
	p.Seed = 2
	pOn := p
	pOn.PrologBytes = 4096 // a few entries at most
	small := Build(g, pOn)
	pOff := p
	pOff.PrologBytes = -1
	ref := Build(g, pOff)

	for u := uint32(0); u < 40; u++ {
		sameResults(t, "u="+itoa(int(u)), small.TopK(u, 10), ref.TopK(u, 10))
	}
	ps := small.PrologStats()
	if ps.BytesInUse > ps.BudgetBytes {
		t.Fatalf("over budget at quiescence: %+v", ps)
	}
}

// An entry charges what it holds. Case by case — a distribution pushed
// whole, one whose share floor held mass back with narrow steps, one with
// wide steps, a vertex with no candidate — the charge covers the words, headers and candidates the
// entry keeps and exceeds them by no more than the allocator's rounding;
// and over a few thousand live entries of both classes the charges
// add up to what the heap grew by.
func TestPrologEntryAccounting(t *testing.T) {
	web := graph.CopyingModel(3000, 6, 0.3, 21)
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		u     uint32
		class int
		held  bool
		wide  bool
	}{
		{"whole", web, 87, builtPushed, false, false},
		{"held", web, 5, builtPushed, true, false},
		{"held-wide", graph.PreferentialAttachment(4000, 10, 0.4, 2), 3999, builtPushed, true, true},
		{"empty", web, 0, builtEmpty, false, false}, // a hub: a push of 10 000 relaxations a step, for nothing
		{"isolated", graph.NewBuilder(3).Build(), 2, builtEmpty, false, false},
	} {
		p := DefaultParams()
		p.Seed = 4
		e := Build(tc.g, p)
		u, n := tc.u, tc.g.N()
		if got, _, held := planClass(e.Snapshot, u); got != tc.class || held != tc.held {
			t.Fatalf("%s: vertex %d takes miss path %d (mass held back: %v), want %d (%v)", tc.name, u, got, held, tc.class, tc.held)
		}
		res, st := e.TopKStats(u, 10)
		got := e.prolog.slots[u].Load()
		if got == nil {
			t.Fatalf("%s: query at %d published no plan", tc.name, u)
		}
		plan := got.val.plan
		if len(plan) != st.Candidates || (len(plan) == 0) != (tc.class == builtEmpty) {
			t.Fatalf("%s: plan of %d candidates, query saw %d (%d results)", tc.name, len(plan), st.Candidates, len(res))
		}
		wd := &got.val.wd
		if builderOf(wd) != tc.class || (wd.T != 0) != (tc.class != builtEmpty) {
			t.Fatalf("%s: cached distribution of %d steps from builder %d", tc.name, wd.T, builderOf(wd))
		}

		// The source the entry was cloned from, built again.
		s := e.getScratch()
		if tc.class != builtEmpty {
			// A trimmed source: the entry holds its horizon's steps, no more.
			if h := e.queryDistInto(&s.wd, s, u); wd.steps() != h || (tc.wide && h >= e.p.T) {
				t.Fatalf("%s: entry keeps %d steps, the query side's horizon is %d of %d", tc.name, wd.steps(), h, e.p.T)
			}
		}
		held := int64(0)
		for step := 0; step < wd.T; step++ {
			S := len(wd.verts[step])
			held += 4*int64(S+len(wd.massw[step])) + 2*24 // headers
			if len(wd.massw[step]) != 2*S {
				t.Fatalf("%s step %d: %d mass words for %d vertices", tc.name, step, len(wd.massw[step]), S)
			}
			if !slices.Equal(wd.verts[step], s.wd.verts[step]) {
				t.Fatalf("%s step %d: support %v, source %v", tc.name, step, wd.verts[step], s.wd.verts[step])
			}
			for i := range wd.verts[step] {
				if math.Float64bits(wd.mass(step, i)) != math.Float64bits(s.wd.mass(step, i)) {
					t.Fatalf("%s step %d entry %d: mass %v, source %v", tc.name, step, i, wd.mass(step, i), s.wd.mass(step, i))
				}
			}
		}
		e.putScratch(s)
		if widest := widestStep(wd); tc.wide && 32*widest < n {
			t.Fatalf("%s: widest step %d of %d vertices", tc.name, widest, n)
		}
		// The allocator rounds a request up to its size class — by a fifth
		// at the very most, or to the next 8 or 16 bytes when it is small;
		// the entry struct and its ring slot are the fixed part.
		planHeld, planCharged := 16*int64(len(plan)), 16*int64(cap(plan))
		if planCharged < planHeld || planCharged > planHeld+planHeld/5+16 {
			t.Fatalf("%s: plan of %d candidates charged %d", tc.name, len(plan), planCharged)
		}
		distCharged := got.size - planCharged
		if lo, hi := held, held+held/5+32+prologEntryOverhead; distCharged < lo || distCharged > hi {
			t.Fatalf("%s: distribution charged %d, holds %d, want within [%d, %d]", tc.name, distCharged, held, lo, hi)
		}
		if tc.class == builtEmpty && got.size != prologEntryOverhead {
			t.Fatalf("%s: entry without candidates charged %d, want the entry's %d alone", tc.name, got.size, prologEntryOverhead)
		}
		if ps := e.PrologStats(); ps.BytesInUse != got.size || ps.Entries != 1 {
			t.Fatalf("%s: cache holds %+v, want one entry of %d bytes", tc.name, ps, got.size)
		}
	}

	// The heap: every vertex of the web graph once through a warm scratch
	// (its buffers stop growing), then again into a cache, with the
	// collector run on either side of the second pass.
	p := DefaultParams()
	p.Seed = 4
	e := Build(web, p)
	s := e.getScratch()
	defer e.putScratch(s)
	c := newClockCache[prolog](web.N(), 1<<40)
	var built [2]int
	var before, after runtime.MemStats
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			// Twice: what earlier tests' snapshots left in their scratch
			// pools survives one collection (sync.Pool's victim cache), and
			// would otherwise be freed inside the measured window.
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
		for u := uint32(0); u < uint32(web.N()); u++ {
			var bs []boundedCand
			wd := &noDist
			if len(e.collectCandidates(s, u, nil, nil)) > 0 {
				wd = &s.wd
				e.queryDistInto(wd, s, u)
				bs = e.buildPlan(s, u, wd)
			}
			ent := newPrologEntry(u, wd, bs)
			if pass == 1 {
				built[builderOf(wd)]++
				c.put(ent)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grown, charged := int64(after.HeapAlloc)-int64(before.HeapAlloc), c.stats().BytesInUse
	t.Logf("%d pushed, %d empty entries: heap grew %d bytes, charged %d", built[builtPushed], built[builtEmpty], grown, charged)
	if built[builtPushed] < 500 || built[builtEmpty] < 500 {
		t.Fatalf("entries by builder %v: the graph no longer has enough of every class", built)
	}
	if diff := grown - charged; diff < -grown/20 || diff > grown/20 {
		t.Fatalf("heap grew %d bytes for %d charged: more than 5 %% apart", grown, charged)
	}
	runtime.KeepAlive(c)
}

// What the horizon saves, as counts a loaded two-core machine reads the
// same as any other: on a social graph a fifth of the benchmark's size the
// query-side distributions keep at most half their steps on average, and a
// cache entry is charged at most three fifths of what the whole pushed
// distribution would be — the share floor already keeps the late steps
// small, so the bytes fall by less than the steps (TestPrologEntryAccounting
// holds the charge of a trimmed entry to the heap).
func TestHorizonCutsWork(t *testing.T) {
	g := graph.PreferentialAttachment(20000, 10, 0.4, 1)
	e := New(g, DefaultParams())
	s := e.getScratch()
	defer e.putScratch(s)
	queries := 200
	if raceEnabled {
		queries = 40 // one goroutine; the counts are checked in full without -race
	}
	var steps int
	var kept, whole int64
	for _, u := range seq(50, uint32(g.N()), uint32(g.N()/queries))[:queries] {
		e.walkDistInto(&s.wd, s, u)
		whole += newPrologEntry(u, &s.wd, nil).size
		steps += e.queryDistInto(&s.wd, s, u)
		kept += newPrologEntry(u, &s.wd, nil).size
	}
	t.Logf("%d queries keep %.2f of %d steps, entries of %d bytes against %d", queries, float64(steps)/float64(queries), e.p.T, kept/int64(queries), whole/int64(queries))
	if 2*steps > queries*e.p.T || 5*kept > 3*whole {
		t.Fatalf("%d queries keep %d steps of %d each and %d of %d bytes: want at most a half and three fifths", queries, steps, e.p.T, kept, whole)
	}
}

// A cached distribution must answer exactly as the scratch original it
// was cloned from, for an entry with wide steps: the scoring index over
// the flat copy newPrologEntry makes agrees with the one over the original
// for every vertex at every step, and so do the masses — and a query
// served from the entry returns what a fresh one does.
func TestPrologEntryLookupMatchesOriginal(t *testing.T) {
	g := graph.PreferentialAttachment(3000, 10, 0.4, 2)
	p := DefaultParams()
	p.Seed = 4
	e := Build(g, p)
	u := uint32(g.N() - 1)
	requireWideStep(t, "query", e.Snapshot, []uint32{u})
	s := e.getScratch()
	defer e.putScratch(s)
	e.walkDistInto(&s.wd, s, u)
	wd := &newPrologEntry(u, &s.wd, nil).val.wd
	checkWalkDist(t, "cloned", uint32(g.N()), wd, &s.slots)
	var cloned, orig slotIndex
	cloned.build(wd, g.N())
	orig.build(&s.wd, g.N())
	for step := 0; step < s.wd.T; step++ {
		if wd.support(step) != s.wd.support(step) {
			t.Fatalf("step %d: support %d, original %d", step, wd.support(step), s.wd.support(step))
		}
		if wd.support(step) == 0 {
			continue
		}
		for w := uint32(0); w < uint32(g.N()); w++ {
			i := orig.lookup(step, w)
			if got := cloned.lookup(step, w); got != i {
				t.Fatalf("step %d: probe(%d) = %d, original %d", step, w, got, i)
			}
			if i >= 0 && wd.mass(step, i) != s.wd.mass(step, i) {
				t.Fatalf("step %d vertex %d: mass %v, original %v", step, w, wd.mass(step, i), s.wd.mass(step, i))
			}
		}
	}

	pOff := p
	pOff.PrologBytes = -1
	fresh := Build(g, pOff).TopK(u, 20)
	sameResults(t, "cold", e.TopK(u, 20), fresh)
	sameResults(t, "from the entry", e.TopK(u, 20), fresh)
	if ps := e.PrologStats(); ps.Hits == 0 || len(fresh) == 0 {
		t.Fatalf("second query did not hit the entry (%+v) or nothing was returned (%d)", ps, len(fresh))
	}
}

// Evicting from a CLOCK ring must not leave the removed pointer behind in
// the ring's spare capacity: a stale copy there keeps an evicted entry
// (over a megabyte for a wide prolog) reachable outside the byte budget.
func TestEvictedEntriesUnreachableFromRings(t *testing.T) {
	const n = 4096
	c := newClockCache[[]boundedCand](n, 1<<30)
	for v := uint32(0); v < n/2; v++ {
		c.put(&rowEntry{key: v, size: 100})
	}
	// Shrink the budget to one entry: every further insert sweeps the
	// rings until only itself fits.
	c.maxBytes = 100
	for v := uint32(n / 2); v < n; v++ {
		c.put(&rowEntry{key: v, size: 100})
	}
	if st := c.stats(); st.Entries != 1 || st.BytesInUse != 100 || st.Evictions != n-1 || st.Rejected != 0 {
		t.Fatalf("cache not swept down to the last insert: %+v", st)
	}
	for i := range c.stripes {
		ring := c.stripes[i].ring
		for j, ent := range ring[len(ring):cap(ring)] {
			if ent != nil {
				t.Fatalf("stripe %d: spare slot %d still points at evicted entry %d", i, j, ent.key)
			}
		}
	}
}
