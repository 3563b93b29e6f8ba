package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/exact"
	"repro/internal/graph"
)

// A cached query plan (prolog.go) replaces the BFS ball, the L1 table, the
// candidate join, the bounds and the sort of every scan mode. These tests
// hold it to the one thing it promises: nothing a caller can observe
// changes — not a result, not a pruning counter, not a fragment entry —
// whether the plan was just derived, came from the cache, or was evicted
// and derived again.

// planObs is everything the scan modes return for one query vertex, cache
// counters dropped (they say where work happened, not what came out).
type planObs struct {
	TopK       []Scored
	TopKStats  QueryStats
	Threshold  []Scored
	Frags      [][][]ShardCand // per shard count 1..3, per shard
	FragStats  [][]QueryStats
	Merged     [][]Scored
	MergeStats []QueryStats
	ThrMerged  []Scored
	ThrStats   []QueryStats
}

const (
	planK     = 10
	planTheta = 0.02
)

// observePlan runs every scan mode at u.
func observePlan(t *testing.T, e *Snapshot, u uint32) planObs {
	t.Helper()
	ctx := context.Background()
	n := uint32(e.g.N())
	var o planObs
	o.TopK, o.TopKStats = e.TopKStats(u, planK)
	if got := e.TopK(u, planK); !slices.Equal(got, o.TopK) {
		t.Fatalf("u=%d: TopK %v, TopKStats %v", u, got, o.TopK)
	}
	o.Threshold = e.Threshold(u, planTheta)
	for shards := uint32(1); shards <= 3; shards++ {
		frags := make([][]ShardCand, shards)
		stats := make([]QueryStats, shards)
		for i := uint32(0); i < shards; i++ {
			f, st, err := e.ShardScanCtx(ctx, u, e.p.Theta, i*n/shards, (i+1)*n/shards, nil)
			if err != nil {
				t.Fatal(err)
			}
			frags[i], stats[i] = f, st
		}
		res, st := MergeShardTopKScratch(planK, e.p.Theta, frags, nil)
		o.Frags = append(o.Frags, frags)
		o.FragStats = append(o.FragStats, stats)
		o.Merged = append(o.Merged, res)
		o.MergeStats = append(o.MergeStats, st)
	}
	thr := make([][]ShardCand, 2)
	for i := uint32(0); i < 2; i++ {
		f, st, err := e.ShardScanCtx(ctx, u, planTheta, i*n/2, (i+1)*n/2, nil)
		if err != nil {
			t.Fatal(err)
		}
		thr[i] = f
		o.ThrStats = append(o.ThrStats, st)
	}
	o.ThrMerged, _ = MergeShardTopKScratch(0, planTheta, thr, nil)
	return o
}

// observeAll is observePlan over us plus one TopKBatch of all of them.
func observeAll(t *testing.T, e *Snapshot, us []uint32) ([]planObs, [][]Scored, []QueryStats) {
	t.Helper()
	obs := make([]planObs, len(us))
	for i, u := range us {
		obs[i] = observePlan(t, e, u)
	}
	res, sts := e.TopKBatch(us, planK)
	return obs, res, sts
}

func samePlanObs(t *testing.T, label string, us []uint32, got, want []planObs, gotB, wantB [][]Scored, gotS, wantS []QueryStats) {
	t.Helper()
	for i, u := range us {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s u=%d:\n got %+v\nwant %+v", label, u, got[i], want[i])
		}
	}
	if !reflect.DeepEqual(gotB, wantB) || !reflect.DeepEqual(gotS, wantS) {
		t.Fatalf("%s: TopKBatch\n got %v %+v\nwant %v %+v", label, gotB, gotS, wantB, wantS)
	}
}

func planVariants() map[string]func(*Params) {
	return map[string]func(*Params){
		"default": func(p *Params) {},
		"no-l1":   func(p *Params) { p.DisableL1 = true },
		"ball":    func(p *Params) { p.Strategy = CandidatesBall; p.BallBudget = 300 },
		"hybrid":  func(p *Params) { p.Strategy = CandidatesHybrid },
		// A share floor of 1/160 in place of 1/10 000: the push holds
		// mass back in more query sides.
		"floor-160": func(p *Params) { p.RAlpha = 160 },
	}
}

// TestPlanCacheInvisible is the table: every scan mode × prolog cache
// {off, cold, warm, churning under a budget of a few entries} × 1/2/3
// workers × the parameters a plan depends on.
func TestPlanCacheInvisible(t *testing.T) {
	g := graph.CopyingModel(900, 6, 0.3, 13)
	us := []uint32{0, 5, 41, 41, 300, 50, 899, 5}
	for name, vary := range planVariants() {
		t.Run(name, func(t *testing.T) {
			build := func(prolog int64, workers int) *Engine {
				p := DefaultParams()
				p.Seed = 29
				p.PrologBytes, p.Workers = prolog, workers
				vary(&p)
				return Build(g, p)
			}
			ref := build(-1, 1).Snapshot
			requireWideStep(t, name, ref, us)
			requireAllClasses(t, name, ref, us)
			want, wantB, wantS := observeAll(t, ref, us)
			scanned := 0
			for _, o := range want {
				scanned += o.TopKStats.Candidates
			}
			if scanned < 50 {
				t.Fatalf("reference scans only %d candidates", scanned)
			}
			for _, workers := range []int{1, 2, 3} {
				label := fmt.Sprintf("workers=%d", workers)
				off := build(-1, workers)
				got, gotB, gotS := observeAll(t, off.Snapshot, us)
				samePlanObs(t, label+" prolog off", us, got, want, gotB, wantB, gotS, wantS)

				on := build(1<<24, workers)
				for _, pass := range []string{"cold", "warm"} {
					got, gotB, gotS = observeAll(t, on.Snapshot, us)
					samePlanObs(t, label+" prolog "+pass, us, got, want, gotB, wantB, gotS, wantS)
				}
				// Six distinct vertices, whatever builds their distribution.
				ps := on.PrologStats()
				if ps.Hits < 10*ps.Misses || ps.Evictions != 0 || ps.Rejected != 0 || ps.Misses != 6 || ps.BuiltPushed+ps.BuiltEmpty != 6 {
					t.Fatalf("%s: ample prolog cache %+v", label, ps)
				}

				tiny := build(churnBudget(on.Snapshot), workers)
				for pass := 0; pass < 2; pass++ {
					got, gotB, gotS = observeAll(t, tiny.Snapshot, us)
					samePlanObs(t, label+" prolog churning", us, got, want, gotB, wantB, gotS, wantS)
				}
				// (Two of a batch's concurrent inserts may not fit this
				// budget together; refusing one is the rule.)
				if ps := tiny.PrologStats(); ps.Evictions == 0 || ps.BytesInUse > ps.BudgetBytes {
					t.Fatalf("%s: tiny prolog cache never churned or overran: %+v", label, ps)
				}
			}
		})
	}
}

// churnBudget is a prolog budget that holds the largest entry e has cached
// and not much else, so a query mix over e's vertices keeps evicting.
func churnBudget(e *Snapshot) int64 {
	var most int64
	for u := range e.prolog.slots {
		if ent := e.prolog.slots[u].Load(); ent != nil {
			most = max(most, ent.size)
		}
	}
	return most + most/10
}

// cachedPlanOf returns a copy of the plan cached for u, or ok=false.
func cachedPlanOf(e *Snapshot, u uint32) (plan []boundedCand, ok bool) {
	ent := e.prolog.slots[u].Load()
	if ent == nil {
		return nil, false
	}
	return slices.Clone(ent.val.plan), true
}

// The cached candidate list is shared by every query that hits it, at any
// worker count, through every scan mode. None of them may write to it: a
// shard scan that filtered it in place, or a scratch that adopted it as
// its bounds buffer, would corrupt it for everyone after.
func TestCachedPlanImmutable(t *testing.T) {
	g := graph.CopyingModel(900, 6, 0.3, 13)
	p := DefaultParams()
	p.Seed = 29
	p.Workers = 2
	p.Strategy = CandidatesHybrid
	e := Build(g, p)
	ctx := context.Background()
	n := uint32(g.N())
	us := []uint32{0, 5, 41, 300, 450, 899}
	before := map[uint32][]boundedCand{}
	for _, u := range us {
		e.TopK(u, planK)
		plan, ok := cachedPlanOf(e.Snapshot, u)
		if !ok {
			t.Fatalf("u=%d: no plan cached", u)
		}
		before[u] = plan
	}
	for q := 0; q < 10000; q++ {
		u := us[q%len(us)]
		lo := uint32(q*37) % n
		switch q % 5 {
		case 0:
			e.TopK(u, 1+q%30)
		case 1:
			e.Threshold(u, planTheta)
		case 2:
			if _, _, err := e.ShardScanCtx(ctx, u, e.p.Theta, lo, n, nil); err != nil {
				t.Fatal(err)
			}
		case 3:
			if _, _, err := e.ShardScanCtx(ctx, u, planTheta, 0, lo, nil); err != nil {
				t.Fatal(err)
			}
		case 4:
			e.TopKBatch(us, planK)
		}
	}
	s := e.getScratch()
	defer e.putScratch(s)
	for _, u := range us {
		after, ok := cachedPlanOf(e.Snapshot, u)
		if !ok || !slices.Equal(after, before[u]) {
			t.Fatalf("u=%d: cached plan changed under load:\n now %v\n was %v", u, after, before[u])
		}
		e.queryDistInto(&s.wd, s, u)
		if fresh := e.buildPlan(s, u, &s.wd); !slices.Equal(after, fresh) {
			t.Fatalf("u=%d: cached plan %v, derived afresh %v", u, after, fresh)
		}
	}
	if ps := e.PrologStats(); ps.Misses != int64(len(us)) || ps.Evictions != 0 {
		t.Fatalf("the queries were not served from the cache: %+v", ps)
	}
}

// Concurrent queries at the same few vertices through every scan mode,
// against a cache small enough that entries are published, hit and evicted
// the whole time. Under -race this is the lifecycle check of the shared
// plan; the answers must not notice.
func TestPlanConcurrentScanModes(t *testing.T) {
	g := graph.CopyingModel(900, 6, 0.3, 13)
	p := DefaultParams()
	p.Seed = 29
	p.Workers = 2
	p.PrologBytes = -1
	us := []uint32{41, 300, 450, 5}
	ref := Build(g, p)
	want := make([]planObs, len(us))
	for i, u := range us {
		want[i] = observePlan(t, ref.Snapshot, u)
	}
	p.PrologBytes = 1 << 24
	full := Build(g, p)
	for _, u := range us {
		full.TopK(u, planK)
	}
	p.PrologBytes = churnBudget(full.Snapshot)
	e := Build(g, p)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 8; round++ {
				i := (w + round) % len(us)
				if got := observePlan(t, e.Snapshot, us[i]); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("worker %d u=%d:\n got %+v\nwant %+v", w, us[i], got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	if ps := e.PrologStats(); ps.Hits == 0 || ps.Evictions == 0 || ps.BytesInUse > ps.BudgetBytes {
		t.Fatalf("prolog cache did not churn under the load: %+v", ps)
	}
}

// recordScratches empties e's scratch pool and returns the list every
// scratch it creates from now on is entered in, so a test can look at all
// the scratches its queries ever held (a sync.Pool cannot be enumerated).
// The lock is the list's; read it once the queries are over.
func recordScratches(e *Snapshot) *[]*scratch {
	var mu sync.Mutex
	all := new([]*scratch)
	n := e.g.N()
	e.pool = sync.Pool{New: func() any {
		s := newScratch(n)
		mu.Lock()
		*all = append(*all, s)
		mu.Unlock()
		return s
	}}
	return all
}

// ballStorage reports whether s ever held what only a plan with a ball
// asks for: the dense distance array, the ball list, Algorithm 2's tables.
func ballStorage(s *scratch) bool {
	return s.dist != nil || cap(s.ball) > 0 || s.alpha != nil || s.overflow != nil || s.l1.beta != nil
}

// planFixtures are the three graph shapes the plan tests run on: the
// benchmark's web and social generators at a few thousand vertices, and
// the dense-community collaboration graph.
func planFixtures() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"copying":       graph.CopyingModel(3000, 8, 0.3, 5),
		"pa":            graph.PreferentialAttachment(2000, 10, 0.4, 5),
		"collaboration": graph.Collaboration(300, 6, 0.7, 60, 5),
	}
}

// Where the ball lives: a plan under CandidatesIndex is H rows and
// in-degrees, so no scan mode, at any worker count, with the plan cached or
// not, may leave a scratch holding a distance array, a ball or an L1 table
// — and DisableL1 has nothing to switch off there, so it moves neither a
// bound nor the order. The strategies that enumerate from the ball still
// build it, and there the L1 table is what prunes.
func TestIndexPlanReadsNoDistances(t *testing.T) {
	ctx := context.Background()
	scan := func(t *testing.T, e *Snapshot, us []uint32) (scratches []*scratch, cands int) {
		all := recordScratches(e)
		n := uint32(e.g.N())
		for _, u := range us {
			_, st := e.TopKStats(u, planK)
			cands += st.Candidates
			e.Threshold(u, planTheta)
			if _, _, err := e.ShardScanCtx(ctx, u, e.p.Theta, n/3, n, nil); err != nil {
				t.Fatal(err)
			}
			if _, _, err := e.ShardScanCtx(ctx, u, planTheta, 0, n/2, nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := e.TopKBatchCtx(ctx, us, planK); err != nil {
			t.Fatal(err)
		}
		return *all, cands
	}
	for name, g := range planFixtures() {
		us := seq(0, uint32(g.N()), uint32(g.N())/40)
		if raceEnabled {
			us = us[:12]
		}
		p := DefaultParams()
		p.Seed = 3
		for _, prolog := range []int64{-1, 1 << 24} {
			for workers := 1; workers <= 3; workers++ {
				p.PrologBytes, p.Workers, p.Strategy = prolog, workers, CandidatesIndex
				scratches, cands := scan(t, Build(g, p).Snapshot, us)
				if len(scratches) == 0 || cands < 10*len(us) {
					t.Fatalf("%s prolog=%d workers=%d: %d scratches for %d candidates", name, prolog, workers, len(scratches), cands)
				}
				for _, s := range scratches {
					if ballStorage(s) {
						t.Fatalf("%s prolog=%d workers=%d: an index-strategy query allocated ball storage (dist %d, ball %d, alpha %d, overflow %d, beta %d)",
							name, prolog, workers, len(s.dist), cap(s.ball), len(s.alpha), len(s.overflow), len(s.l1.beta))
					}
				}
			}
		}
		// The same harness sees the ball where there is one.
		p.Strategy, p.PrologBytes, p.Workers = CandidatesHybrid, -1, 1
		scratches, _ := scan(t, Build(g, p).Snapshot, us[:2])
		if !slices.ContainsFunc(scratches, ballStorage) {
			t.Fatalf("%s: a hybrid plan left no ball storage behind; the check above sees nothing", name)
		}

		// DisableL1 under CandidatesIndex: the same plans, bounds and order.
		p.Strategy = CandidatesIndex
		with := Build(g, p)
		p.DisableL1 = true
		without := Build(g, p)
		s, s2 := with.getScratch(), without.getScratch()
		for _, u := range us {
			with.collectCandidates(s, u, nil, nil)
			without.collectCandidates(s2, u, nil, nil)
			with.queryDistInto(&s.wd, s, u)
			a, b := with.buildPlan(s, u, &s.wd), without.buildPlan(s2, u, &s.wd)
			if !slices.Equal(a, b) {
				t.Fatalf("%s u=%d: index plan with L1 %v, without %v", name, u, a, b)
			}
		}
		with.putScratch(s)
		without.putScratch(s2)

		// DisableL1 under CandidatesBall, where the table exists: the bound
		// prunes with it, without it only the ball's vertices that have no
		// in-edge (their degree bound and their score are 0), and the
		// answers do not notice.
		if name != "pa" {
			continue
		}
		p.Strategy, p.DisableL1 = CandidatesBall, false
		with = Build(g, p)
		p.DisableL1 = true
		without = Build(g, p)
		var prunedWith, prunedWithout, sources int
		for _, u := range seq(0, uint32(g.N()), 97) {
			a, sa := with.TopKStats(u, planK)
			b, sb := without.TopKStats(u, planK)
			if !slices.Equal(a, b) {
				t.Fatalf("ball u=%d: with L1 %v, without %v", u, a, b)
			}
			prunedWith += sa.PrunedByBound
			prunedWithout += sb.PrunedByBound
			ball, _ := g.UndirectedBallBudget(u, with.p.DMax, with.p.BallBudget)
			for v := range ball {
				if v != u && g.InDegree(v) == 0 {
					sources++
				}
			}
		}
		if prunedWith <= prunedWithout || prunedWithout != sources {
			t.Fatalf("ball candidates: %d pruned by bound with the L1 table, %d without; want more, and the %d without in-edges", prunedWith, prunedWithout, sources)
		}
	}
}

// refBuildPlanWithBall is buildPlan as it stood while every plan had a
// ball: the budget-truncated BFS, Algorithm 2's table over it, the ball
// strategies' candidates read off it (an index plan's are in qs.cands
// already), and min(distance bound, β, degree bound) for each. Kept as the
// reference the index plan is measured against, and as the pin on the ball
// strategies' plans, which must not move. The result is a copy.
func refBuildPlanWithBall(e *Snapshot, qs *scratch, u uint32, wd *walkDist) []boundedCand {
	dist := qs.distBuf()
	defer qs.resetDist()
	var truncated bool
	qs.ball, truncated = e.g.UndirectedBallInto(u, e.p.DMax, e.p.BallBudget, dist, qs.ball[:0])
	exploredRadius := e.p.DMax
	if truncated && len(qs.ball) > 0 {
		exploredRadius = int(dist[qs.ball[len(qs.ball)-1]]) - 1
	}
	var l1 *l1Table
	if !e.p.DisableL1 {
		l1 = e.computeL1From(qs, wd, dist, exploredRadius)
	}
	if e.p.Strategy != CandidatesIndex {
		e.collectCandidates(qs, u, dist, qs.ball)
	}
	var bs []boundedCand
	for _, v := range qs.cands {
		ub := e.DegreeBound(v)
		if d := dist[v]; d >= 0 {
			ub = min(ub, e.DistanceBound(int(d)), l1.bound(int(d)))
		}
		bs = append(bs, boundedCand{v, ub})
	}
	sortBounds(bs)
	return bs
}

// The index plan against the plan it replaces (ball, α/β table, three-way
// min), on web-, social- and collaboration-shaped graphs. No bound got
// tighter: each is the degree bound, which dominates the exact series score
// with no slack. No answer moves, top-k or threshold: what the reference
// cut by bound the rough pass cuts, or it is refined and lands below the
// floor. (A different order meets a candidate at a different floor, so a
// rough verdict within a hair of its cut could flip; on these fixtures and
// walks none does, and one that did would fail here.) The scan refines
// fewer candidates on the social shape, because β is one value per
// distance and min(β, B) flattens the order the degree bound B gives; on
// the other two, at this size, a few the table cut survive the rough pass
// (18 in 6 324 and 43 in 25 784 measured), bounded here at 1 %. The ball
// strategies' plans are the reference's, bit for bit.
func TestIndexPlanAgainstBallReference(t *testing.T) {
	const k = 20
	// One goroutine, nothing for the race detector to see: a fifth of the
	// queries, as widely spread, is enough of a 30× slower run.
	minQueries, stride := 500, uint32(1)
	if raceEnabled {
		minQueries, stride = 100, 4
	}
	fixtures := planFixtures()
	// The flatter order costs more the more candidates tie at one β: 0.2 %
	// of the refinements at 2 000 vertices, 1.9 % at 6 000 (15 % at the
	// benchmark's 100 000), so the social shape is taken at 6 000.
	fixtures["pa"] = graph.PreferentialAttachment(6000, 10, 0.4, 5)
	for name, g := range fixtures {
		p := DefaultParams()
		p.Seed = 3
		p.Workers = 1
		p.PrologBytes = -1
		// The benchmark's graphs are five times the ball budget; keep the
		// proportion, so the reference's table sees a truncated ball too.
		p.BallBudget = g.N() / 5
		e := Build(g, p).Snapshot
		// The same snapshot with a prolog cache, which is how a reference
		// plan gets scanned by the served path: planted as u's entry, it is
		// the plan every query at u hits.
		p.PrologBytes = 1 << 30
		planted := Build(g, p).Snapshot
		ctx := context.Background()
		qs := e.getScratch()
		d := exact.UniformDiagonal(g.N(), e.p.C)
		var queries, checked, pruned, refPruned, refined, refRefined int
		for _, u := range seq(0, uint32(g.N()), stride*uint32(g.N()/700)) {
			if queries == minQueries {
				break
			}
			if len(e.collectCandidates(qs, u, nil, nil)) == 0 {
				continue
			}
			queries++
			wd := &qs.wd
			e.queryDistInto(wd, qs, u)
			ref := refBuildPlanWithBall(e, qs, u, wd)
			plan := e.buildPlan(qs, u, wd)
			if len(plan) != len(ref) {
				t.Fatalf("%s u=%d: %d candidates, reference %d", name, u, len(plan), len(ref))
			}
			planted.prolog.put(newPrologEntry(u, wd, ref))
			refUB := map[uint32]float64{}
			for _, b := range ref {
				refUB[b.v] = b.ub
			}
			// The series row for every fifth query.
			var row []float64
			if queries%5 == 0 {
				row = exact.SingleSource(g, d, e.p.C, e.p.T, u)
			}
			for _, b := range plan {
				if r, ok := refUB[b.v]; !ok || b.ub < r || b.ub != e.DegreeBound(b.v) {
					t.Fatalf("%s u=%d v=%d: bound %v, reference %v (listed %v), degree bound %v", name, u, b.v, b.ub, r, ok, e.DegreeBound(b.v))
				}
				if row != nil {
					checked++
					if row[b.v] > b.ub {
						t.Fatalf("%s u=%d v=%d: series score %v > bound %v", name, u, b.v, row[b.v], b.ub)
					}
				}
			}
			for _, q := range []struct {
				k     int
				theta float64
			}{{k, e.p.Theta}, {0, planTheta}} {
				got, st, _ := e.search(ctx, u, q.k, q.theta)
				want, refSt, _ := planted.search(ctx, u, q.k, q.theta)
				if !slices.Equal(got, want) {
					t.Errorf("%s u=%d k=%d theta=%v: answer differs from the scan over the reference plan\n got %v\nwant %v", name, u, q.k, q.theta, got, want)
				}
				pruned += st.PrunedByBound
				refPruned += refSt.PrunedByBound
				refined += st.Refined
				refRefined += refSt.Refined
			}
		}
		e.putScratch(qs)
		if ps := planted.PrologStats(); ps.Misses != 0 || ps.Hits != int64(2*queries) {
			t.Fatalf("%s: the reference plans were not the ones scanned: %+v", name, ps)
		}
		t.Logf("%s: %d queries; pruned by bound %d (reference %d), refined %d (reference %d), %d bounds against the exact series",
			name, queries, pruned, refPruned, refined, refRefined, checked)
		if queries < minQueries || checked < minQueries {
			t.Fatalf("%s: only %d queries with candidates, %d bounds checked against the series", name, queries, checked)
		}
		if most := refRefined + refRefined/100; refined > most || (name == "pa" && refined >= refRefined) {
			t.Fatalf("%s: %d candidates refined, %d over the reference plans", name, refined, refRefined)
		}

		// With a ball the plan is the reference, whatever the table's state.
		for _, vary := range []func(*Params){
			func(p *Params) { p.Strategy = CandidatesBall },
			func(p *Params) { p.Strategy = CandidatesHybrid },
			func(p *Params) { p.Strategy = CandidatesHybrid; p.DisableL1 = true },
			func(p *Params) { p.Strategy = CandidatesBall; p.BallBudget = 0 },
		} {
			pp := p
			vary(&pp)
			e := Build(g, pp).Snapshot
			qs := e.getScratch()
			for _, u := range seq(0, uint32(g.N()), uint32(g.N())/25) {
				e.queryDistInto(&qs.wd, qs, u)
				want := refBuildPlanWithBall(e, qs, u, &qs.wd)
				if got := e.buildPlan(qs, u, &qs.wd); len(want) == 0 || !slices.Equal(got, want) {
					t.Fatalf("%s %s l1=%v u=%d: plan of %d candidates differs from the reference's %d", name, pp.Strategy, !pp.DisableL1, u, len(got), len(want))
				}
			}
			e.putScratch(qs)
		}
	}
}
