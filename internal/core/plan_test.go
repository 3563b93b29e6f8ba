package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
)

// A cached query plan (prolog.go) replaces the BFS ball, the L1 table, the
// candidate join, the bounds and the sort of every scan mode. These tests
// hold it to the one thing it promises: nothing a caller can observe
// changes — not a result, not a pruning counter, not a fragment entry —
// whether the plan was just derived, came from the cache, was evicted and
// derived again, or was carried across an incremental rebuild.

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
	o.TopKStats = dropCache(o.TopKStats)
	if got := e.TopK(u, planK); !slices.Equal(got, o.TopK) {
		t.Fatalf("u=%d: TopK %v, TopKStats %v", u, got, o.TopK)
	}
	o.Threshold = e.Threshold(u, planTheta)
	for shards := uint32(1); shards <= 3; shards++ {
		frags := make([][]ShardCand, shards)
		stats := make([]QueryStats, shards)
		for i := uint32(0); i < shards; i++ {
			f, st, err := e.TopKShardCtx(ctx, u, i*n/shards, (i+1)*n/shards)
			if err != nil {
				t.Fatal(err)
			}
			frags[i], stats[i] = f, dropCache(st)
		}
		res, st := MergeShardTopK(planK, e.p.Theta, frags)
		o.Frags = append(o.Frags, frags)
		o.FragStats = append(o.FragStats, stats)
		o.Merged = append(o.Merged, res)
		o.MergeStats = append(o.MergeStats, st)
	}
	thr := make([][]Scored, 2)
	for i := uint32(0); i < 2; i++ {
		res, st, err := e.ThresholdShardCtx(ctx, u, planTheta, i*n/2, (i+1)*n/2)
		if err != nil {
			t.Fatal(err)
		}
		thr[i] = res
		o.ThrStats = append(o.ThrStats, dropCache(st))
	}
	o.ThrMerged = mergeScored(thr)
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
	for i := range sts {
		sts[i] = dropCache(sts[i])
	}
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
		"no-l2":   func(p *Params) { p.DisableL2 = true },
		"ball":    func(p *Params) { p.Strategy = CandidatesBall; p.BallBudget = 300 },
		"hybrid":  func(p *Params) { p.Strategy = CandidatesHybrid },
		// ExactScoring reads and writes the same cached plans: with the
		// default push budget, and with one of 40 relaxations (RAlpha/4),
		// which sends vertex 41 to its 160 sampled walks as well.
		"exact":    func(p *Params) { p.ExactScoring = true },
		"exact-40": func(p *Params) { p.ExactScoring = true; p.RAlpha = 160 },
	}
}

// TestPlanCacheInvisible is the table: every scan mode × prolog cache
// {off, cold, warm, churning under a budget of a few entries} × 1/2/3
// workers × tally cache off/on × the parameters a plan depends on.
func TestPlanCacheInvisible(t *testing.T) {
	g := graph.CopyingModel(900, 6, 0.3, 13)
	us := []uint32{0, 5, 41, 41, 300, 450, 899, 5}
	for name, vary := range planVariants() {
		t.Run(name, func(t *testing.T) {
			build := func(prolog, tally int64, workers int) *Engine {
				p := DefaultParams()
				p.Seed = 29
				p.PrologBytes, p.CacheBytes, p.Workers = prolog, tally, workers
				vary(&p)
				return Build(g, p)
			}
			ref := build(-1, 0, 1).Snapshot
			requireBothKinds(t, name, ref, us)
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
				for _, tally := range []int64{0, 1 << 22} {
					label := fmt.Sprintf("workers=%d tally=%d", workers, tally)
					off := build(-1, tally, workers)
					got, gotB, gotS := observeAll(t, off.Snapshot, us)
					samePlanObs(t, label+" prolog off", us, got, want, gotB, wantB, gotS, wantS)

					on := build(1<<24, tally, workers)
					for _, pass := range []string{"cold", "warm"} {
						got, gotB, gotS = observeAll(t, on.Snapshot, us)
						samePlanObs(t, label+" prolog "+pass, us, got, want, gotB, wantB, gotS, wantS)
					}
					// Six distinct vertices, whatever builds their distribution.
					ps := on.PrologStats()
					if ps.Hits < 10*ps.Misses || ps.Evictions != 0 || ps.Rejected != 0 || ps.Misses != 6 || ps.BuiltExact+ps.BuiltSampled+ps.BuiltEmpty != 6 {
						t.Fatalf("%s: ample prolog cache %+v", label, ps)
					}

					tiny := build(churnBudget(on.Snapshot), tally, workers)
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
	if ent == nil || ent.val.plan.Load() == nil {
		return nil, false
	}
	return slices.Clone(*ent.val.plan.Load()), true
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
	p.CacheBytes = 1 << 22
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
			if _, _, err := e.TopKShardCtx(ctx, u, lo, n); err != nil {
				t.Fatal(err)
			}
		case 3:
			if _, _, err := e.ThresholdShardCtx(ctx, u, planTheta, 0, lo); err != nil {
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
	p.CacheBytes = 1 << 22
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

// An incremental refresh carries the walk distributions of unaffected
// vertices and leaves their plans behind: an edge outside u's walk
// neighbourhood still moves u's ball, its candidates and their γ. A
// vertex that had no candidate has no distribution to carry and is left
// behind whole — the edge here gives two of them their first candidate.
// Every answer on the refreshed snapshot must equal a fresh Build's — on
// the first ask, which derives the plan from the carried distribution or
// builds all of it, and on the second, which reads the plan the first one
// published.
func TestPlanAcrossIncrementalRefresh(t *testing.T) {
	const n = 700
	g := graph.CopyingModel(n, 5, 0.3, 21)
	p := DefaultParams()
	p.Seed = 11
	p.Workers = 2
	d := NewDynamicFrom(g, p)
	defer d.Close()
	if err := d.Refresh(); err != nil {
		t.Fatal(err)
	}
	warm, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	all := seq(0, n, 1)
	requireAllClasses(t, "before the refresh", warm, all)
	oldPlans := make([][]boundedCand, n)
	var noCands []uint32
	for _, u := range all {
		warm.TopK(u, planK)
		oldPlans[u], _ = cachedPlanOf(warm, u)
		if warm.prolog.slots[u].Load().val.wd.T == 0 {
			noCands = append(noCands, u)
		}
	}

	if err := d.AddEdge(3, 650); err != nil {
		t.Fatal(err)
	}
	inc, _ := d.Refreshes()
	if err := d.Refresh(); err != nil {
		t.Fatal(err)
	}
	if after, _ := d.Refreshes(); after != inc+1 {
		t.Fatal("the refresh was not incremental")
	}
	next, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var carried []uint32
	var carriedBytes int64
	for _, u := range all {
		if ent := next.prolog.slots[u].Load(); ent != nil {
			if ent.val.plan.Load() != nil || ent.val.wd.T == 0 {
				t.Fatalf("u=%d: plan or step-less distribution carried across the refresh", u)
			}
			carried = append(carried, u)
			carriedBytes += ent.size
		}
	}
	if ps := next.PrologStats(); len(carried) < (n-len(noCands))*3/4 || ps.Entries != len(carried) || ps.BytesInUse != carriedBytes {
		t.Fatalf("%d of %d distributions carried, cache reports %+v for %d bytes", len(carried), n-len(noCands), ps, carriedBytes)
	}
	gained := 0
	for _, u := range noCands {
		if planClass(next, u) != builtEmpty {
			gained++
		}
	}
	if gained == 0 {
		t.Fatal("no vertex got its first candidate; the edge no longer tests what is not carried")
	}

	var edges []graph.Edge
	next.Graph().Edges(func(u, v uint32) bool {
		edges = append(edges, graph.Edge{U: u, V: v})
		return true
	})
	pp := p
	pp.PrologBytes = -1
	fresh := Build(graph.FromEdges(n, edges), pp)
	stale := 0
	for _, u := range all {
		want := observePlan(t, fresh.Snapshot, u)
		for _, ask := range []string{"first", "second"} {
			if got := observePlan(t, next, u); !reflect.DeepEqual(got, want) {
				t.Fatalf("u=%d, %s ask after the refresh:\n got %+v\nwant %+v", u, ask, got, want)
			}
		}
		plan, ok := cachedPlanOf(next, u)
		if !ok {
			t.Fatalf("u=%d: the first ask published no plan", u)
		}
		if slices.Contains(carried, u) && !slices.Equal(plan, oldPlans[u]) {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("no carried vertex's plan differs between the snapshots; the edge no longer tests the carry rule")
	}
	// Carried entries grew by their plans; everything else was a miss.
	want := carriedBytes
	for _, u := range all {
		ent := next.prolog.slots[u].Load()
		if slices.Contains(carried, u) {
			want += planBytes(*ent.val.plan.Load())
		} else {
			want += ent.size
		}
	}
	if ps := next.PrologStats(); ps.BytesInUse != want || ps.Misses != int64(n-len(carried)) {
		t.Fatalf("after republishing %d plans (%d of them changed): %+v, want %d bytes and %d misses", len(carried), stale, ps, want, n-len(carried))
	}
}
