package core

import (
	"context"
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
			wantFrag, wantStats, err := cold.TopKShardCtx(context.Background(), u, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			gotFrag, gotStats, err := off.TopKShardCtx(context.Background(), u, r[0], r[1])
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

// An entry must charge at least the bytes it holds (supports, walk counts,
// directories of either kind, the plan's candidates) and no more than 12
// bytes a support vertex of a sparse step — the price of the float64-mass
// layout this one replaced — 14 of a dense step, plus 16 a candidate and
// the fixed overheads.
func TestPrologEntryAccounting(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.PreferentialAttachment(4000, 10, 0.4, 2), // supports in the thousands: dense steps
		graph.CopyingModel(1500, 5, 0.3, 2),            // supports in the tens: none
		graph.NewBuilder(3).Build(),                    // step 0 only, no candidates
	} {
		p := DefaultParams()
		p.Seed = 4
		e := Build(g, p)
		s := e.getScratch()
		u := uint32(g.N() - 1)
		e.sampleWalkDistInto(&s.wd, s, u, e.p.RAlpha, e.queryRNG(u))
		ent := newPrologEntry(u, &s.wd)
		wd := &ent.val.wd
		var support, held int64
		limit := int64(prologEntryOverhead)
		dense := 0
		for step := 0; step < wd.T; step++ {
			S := int64(len(wd.verts[step]))
			support += S
			held += 4*int64(len(wd.verts[step])+len(wd.cnt[step])+len(wd.dir[step])) + 1 // + shift
			if S > 0 && wd.dense(step) {
				dense++
				if len(wd.dir[step]) != 3*rankWords(g.N()) {
					t.Fatalf("step %d: rank bitset of %d words for %d vertices", step, len(wd.dir[step]), g.N())
				}
				limit += 14*S + prologStepOverhead + 12
			} else {
				limit += 12*S + prologStepOverhead + 4
			}
			if len(wd.cnt[step]) != len(wd.verts[step]) || len(wd.probs) != 0 {
				t.Fatalf("step %d: %d counts for %d vertices, %d mass rows", step, len(wd.cnt[step]), len(wd.verts[step]), len(wd.probs))
			}
			for i := range wd.verts[step] {
				if wd.mass(step, i) != s.wd.mass(step, i) {
					t.Fatalf("step %d entry %d: mass %v, source %v", step, i, wd.mass(step, i), s.wd.mass(step, i))
				}
			}
		}
		e.putScratch(s)
		if (g.N() == 4000 && dense == 0) || (g.N() == 1500 && dense != 0) {
			t.Fatalf("n=%d: %d dense steps", g.N(), dense)
		}
		if ent.size < held || ent.size > limit || ent.val.wdBytes != ent.size {
			t.Fatalf("n=%d support=%d: size %d (distribution %d), want within [%d held, %d]", g.N(), support, ent.size, ent.val.wdBytes, held, limit)
		}

		// What a query publishes is that entry plus its plan, and the
		// cache charges exactly the entry's size.
		res, st := e.TopKStats(u, 10)
		got := e.prolog.slots[u].Load()
		if got == nil || got.val.plan.Load() == nil {
			t.Fatalf("n=%d: query at %d published no plan", g.N(), u)
		}
		cands := int64(len(*got.val.plan.Load()))
		if cands != int64(st.Candidates) || (g.N() == 3 && cands != 0) || (g.N() == 4000 && cands == 0) {
			t.Fatalf("n=%d: plan of %d candidates, query saw %d (%d results)", g.N(), cands, st.Candidates, len(res))
		}
		planHeld := 16 * cands
		if plan := got.size - got.val.wdBytes; got.val.wdBytes != ent.size || plan < planHeld || plan > planHeld+planOverhead {
			t.Fatalf("n=%d: entry charges %d = %d distribution + %d plan, want %d + [%d, %d]", g.N(), got.size, got.val.wdBytes, plan, ent.size, planHeld, planHeld+planOverhead)
		}
		if ps := e.PrologStats(); ps.BytesInUse != got.size || ps.Entries != 1 {
			t.Fatalf("n=%d: cache holds %+v, want one entry of %d bytes", g.N(), ps, got.size)
		}
	}
}

// A cached distribution must answer exactly as the scratch original it
// was cloned from, for both directory kinds in one entry: the flat copy
// newPrologEntry makes, and what carryProlog hands to the next snapshot,
// agree with the original on lookup and mass for every vertex at every
// step — and a query served from the entry returns what a fresh one does.
func TestPrologEntryLookupMatchesOriginal(t *testing.T) {
	g := graph.PreferentialAttachment(3000, 10, 0.4, 2)
	p := DefaultParams()
	p.Seed = 4
	e := Build(g, p)
	u := uint32(g.N() - 1)
	requireBothKinds(t, "query", e.Snapshot, []uint32{u})
	s := e.getScratch()
	defer e.putScratch(s)
	e.sampleWalkDistInto(&s.wd, s, u, e.p.RAlpha, e.queryRNG(u))
	cloned := newPrologEntry(u, &s.wd)
	carried := carryProlog(cloned)
	if carried.size != cloned.size || carried.val.plan.Load() != nil {
		t.Fatalf("carried entry charges %d with plan %v, cloned %d", carried.size, carried.val.plan.Load(), cloned.size)
	}
	for name, ent := range map[string]*prologEntry{"cloned": cloned, "carried": carried} {
		wd := &ent.val.wd
		checkWalkDist(t, name, uint32(g.N()), wd)
		for step := 0; step < s.wd.T; step++ {
			if wd.support(step) != s.wd.support(step) || (wd.support(step) > 0 && wd.dense(step) != s.wd.dense(step)) {
				t.Fatalf("%s step %d: support %d, original %d", name, step, wd.support(step), s.wd.support(step))
			}
			if wd.support(step) == 0 {
				continue
			}
			for w := uint32(0); w < uint32(g.N()); w++ {
				i := s.wd.lookup(step, w)
				if got := wd.lookup(step, w); got != i {
					t.Fatalf("%s step %d: lookup(%d) = %d, original %d", name, step, w, got, i)
				}
				if i >= 0 && wd.mass(step, i) != s.wd.mass(step, i) {
					t.Fatalf("%s step %d vertex %d: mass %v, original %v", name, step, w, wd.mass(step, i), s.wd.mass(step, i))
				}
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
	c := newClockCache[tally](n, 1<<30)
	for v := uint32(0); v < n/2; v++ {
		c.put(&tallyEntry{key: v, size: 100})
	}
	// Shrink the budget to one entry: every further insert sweeps the
	// rings until only itself fits.
	c.maxBytes = 100
	for v := uint32(n / 2); v < n; v++ {
		c.put(&tallyEntry{key: v, size: 100})
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
