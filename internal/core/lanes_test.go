package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
)

// The lane kernel (lanes.go) replaced the uncached tally path, so its
// reference is that path as the tests kept it: refScores walks one
// candidate at a time, tabulates the sorted tally and evaluates it with
// refDot, the two-branch dot product of walkdist_test.go. refCandScore
// adds the rough verdict, refSearch the block scan around it —
// sequential, one candidate after another — so results, rough estimates,
// states and pruning counts all have a reference that shares no
// scheduling with the code under test.

func refCandScore(e *Snapshot, s *scratch, rd *refDist, v uint32, floor float64) ShardCand {
	rough, full, _ := refScores(e, s, rd, v)
	switch {
	case e.p.DisableAdaptive:
		return ShardCand{Score: full, State: ShardScoredNoRough}
	case rough < 0.3*floor:
		return ShardCand{Rough: rough, State: ShardRoughPruned}
	}
	return ShardCand{Score: full, Rough: rough, State: ShardScored}
}

// sameOutcome compares what scoring found out about a candidate: state
// and estimates (the reference does not fill in vertex and bound).
func sameOutcome(a, b ShardCand) bool {
	return a.State == b.State &&
		math.Float64bits(a.Score) == math.Float64bits(b.Score) &&
		math.Float64bits(a.Rough) == math.Float64bits(b.Rough)
}

// scoreBlockOf runs scoreBlock into a fresh outcome slice, against wd's
// slot index built on qs.
func scoreBlockOf(e *Snapshot, qs *scratch, block []boundedCand, wd *walkDist, floor float64) []ShardCand {
	out := make([]ShardCand, len(block))
	qs.slots.build(wd, qs.n)
	defer qs.slots.clear()
	e.scoreBlock(qs, block, out, &qs.slots, floor)
	return out
}

// refQuery is one query's plan and reference query side. wd may alias
// qs, which the caller keeps checked out.
type refQuery struct {
	wd *walkDist
	rd *refDist
	bs []boundedCand
}

// newRefQuery builds the query side on its own: the dense reference push
// (refPush, which TestPushMatchesDenseReference holds the push itself to)
// cut at the plan's horizon.
func newRefQuery(e *Snapshot, qs *scratch, u uint32) refQuery {
	pl := e.queryPlan(qs, u)
	q := refQuery{wd: pl.wd, bs: slices.Clone(pl.cands), rd: &refDist{}}
	if len(q.bs) > 0 { // otherwise nothing is scored against it
		q.rd = refQuerySide(e, u).cut(pl.wd.steps())
	}
	return q
}

// refSearch is search()'s block scan with every candidate scored by the
// reference, in order, on one goroutine.
func refSearch(e *Snapshot, s *scratch, q refQuery, k int, theta float64) ([]Scored, QueryStats) {
	stats := QueryStats{Candidates: len(q.bs)}
	acc := newTopKAcc(k)
	for i := 0; i < len(q.bs); {
		floor := theta
		if acc.kth() > floor {
			floor = acc.kth()
		}
		if q.bs[i].ub < floor {
			stats.PrunedByBound += len(q.bs) - i
			break
		}
		end := min(i+scoreBlock, len(q.bs))
		for end > i && q.bs[end-1].ub < floor {
			end--
		}
		for _, b := range q.bs[i:end] {
			cs := refCandScore(e, s, q.rd, b.v, floor)
			if cs.State == ShardRoughPruned {
				stats.PrunedByRough++
				continue
			}
			stats.Refined++
			if cs.Score >= theta {
				acc.add(Scored{b.v, cs.Score})
			}
		}
		i = end
	}
	return acc.result(), stats
}

// TestLaneKernelMatchesReference drives every way a block reaches the
// lane kernel — adaptive, DisableAdaptive, and a web graph's query sides,
// pushed whole and held back — through search and the shard scan, and
// requires results, pruning counts and every fragment entry to carry the
// reference's bits; 2- and 3-shard merges must replay to the same.
func TestLaneKernelMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three engines")
	}
	wide := graph.PreferentialAttachment(5000, 10, 0.4, 3)
	narrow := graph.CopyingModel(2000, 5, 0.3, 21)
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		queries []uint32
		tune    func(p *Params)
	}{
		{"adaptive", wide, []uint32{4999, 1234, 3100}, func(p *Params) {}},
		{"noadapt", wide, []uint32{4999, 3777}, func(p *Params) { p.DisableAdaptive = true }},
		// Both miss paths: a pushed query side, and a hub H gives no
		// candidate; 17's share floor holds mass back, and 81's push dies
		// out before its horizon.
		{"web", narrow, []uint32{35, 17, 0, 81}, func(p *Params) {}},
	} {
		p := DefaultParams()
		p.Seed = 9
		p.PrologBytes = -1
		tc.tune(&p)
		e := Build(tc.g, p).Snapshot
		theta, n := e.p.Theta, uint32(tc.g.N())
		switch tc.name {
		case "web":
			requireAllClasses(t, tc.name, e, tc.queries)
		case "adaptive", "noadapt":
			// A wide step inside one query's distribution.
			requireWideStep(t, tc.name, e, tc.queries)
		}
		for _, u := range tc.queries {
			label := fmt.Sprintf("%s u=%d", tc.name, u)
			qs := e.getScratch()
			q := newRefQuery(e, qs, u)
			want, wantStats := refSearch(e, qs, q, 20, theta)
			got, stats, err := e.search(ctx, u, 20, theta)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, label, got, want)
			if scanStats(stats) != wantStats {
				t.Fatalf("%s: stats %+v, reference %+v", label, scanStats(stats), wantStats)
			}
			// Shard fragments are scored at the fixed floor theta.
			ref := map[uint32]ShardCand{}
			for _, b := range q.bs {
				if b.ub >= theta {
					ref[b.v] = refCandScore(e, qs, q.rd, b.v, theta)
				}
			}
			for shards := uint32(1); shards <= 3; shards++ {
				frags := make([][]ShardCand, shards)
				for i := range frags {
					var err error
					frags[i], _, err = e.shardScan(ctx, u, theta, uint32(i)*n/shards, uint32(i+1)*n/shards, nil)
					if err != nil {
						t.Fatal(err)
					}
					for _, c := range frags[i] {
						want, scored := ref[c.V]
						if c.State == ShardUnscored {
							if scored {
								t.Fatalf("%s shards=%d v=%d: unscored with bound above theta", label, shards, c.V)
							}
							continue
						}
						if !scored || !sameOutcome(c, want) {
							t.Fatalf("%s shards=%d v=%d: fragment entry %+v, reference %+v", label, shards, c.V, c, want)
						}
					}
				}
				got, stats := MergeShardTopKScratch(20, theta, frags, nil)
				sameResults(t, fmt.Sprintf("%s shards=%d", label, shards), got, want)
				if stats != wantStats {
					t.Fatalf("%s shards=%d: merged stats %+v, reference %+v", label, shards, stats, wantStats)
				}
			}
			e.putScratch(qs)
		}
	}
}

// TestScoreBlockShapes scores blocks whose length is not a multiple of
// the lane width, and floors that leave fewer survivors than one lane
// group (or none, or all).
func TestScoreBlockShapes(t *testing.T) {
	g := graph.PreferentialAttachment(3000, 10, 0.4, 3)
	p := DefaultParams()
	p.Seed = 9
	p.PrologBytes = -1
	e := Build(g, p).Snapshot
	qs := e.getScratch()
	defer e.putScratch(qs)
	q := newRefQuery(e, qs, 2999)
	if len(q.bs) < scoreBlock {
		t.Fatalf("%d candidates, want a full block", len(q.bs))
	}
	s := e.getScratch()
	defer e.putScratch(s)
	rough := make([]float64, scoreBlock)
	full := make([]float64, scoreBlock)
	for j, b := range q.bs[:scoreBlock] {
		rough[j], full[j], _ = refScores(e, s, q.rd, b.v)
	}
	// A floor between the m-th and (m+1)-th largest rough estimate of the
	// first L candidates leaves m survivors.
	floorLeaving := func(L, m int) float64 {
		r := slices.Clone(rough[:L])
		slices.Sort(r)
		slices.Reverse(r)
		return (r[m-1] + r[m]) / 2 / 0.3
	}
	lanes := laneFit(e.p.T, e.p.RScore, graph.MaxWalkLanes)
	if lanes != graph.MaxWalkLanes {
		t.Fatalf("lane width %d, want %d", lanes, graph.MaxWalkLanes)
	}
	fewSurvivors, raggedSurvivors := false, false
	for _, L := range []int{1, 7, 8, 9, 15, 16, 17, 23, 31, 32, 33, 41, 63, 64} {
		floors := []float64{0, e.p.Theta, 10}
		if L > 3 {
			floors = append(floors, floorLeaving(L, 3))
		}
		if L > 11 {
			floors = append(floors, floorLeaving(L, 11))
		}
		for _, floor := range floors {
			survivors := 0
			for _, r := range rough[:L] {
				if r >= 0.3*floor {
					survivors++
				}
			}
			fewSurvivors = fewSurvivors || survivors > 0 && survivors < lanes
			raggedSurvivors = raggedSurvivors || survivors > lanes && survivors%lanes != 0
			got := scoreBlockOf(e, qs, q.bs[:L], q.wd, floor)
			for j := range got {
				want := ShardCand{Score: full[j], Rough: rough[j], State: ShardScored}
				if rough[j] < 0.3*floor {
					want = ShardCand{Rough: rough[j], State: ShardRoughPruned}
				}
				if !sameOutcome(got[j], want) {
					t.Fatalf("L=%d floor=%g v=%d: %+v, reference %+v", L, floor, q.bs[j].v, got[j], want)
				}
			}
		}
	}
	if !fewSurvivors || !raggedSurvivors {
		t.Fatalf("survivor counts below one lane group seen: %v, not a multiple of it: %v", fewSurvivors, raggedSurvivors)
	}
}

// TestLaneBudget pins the lane memory bound: a scratch never holds more
// than lanePosBytes of positions per buffer once a single matrix fits,
// and exactly one matrix when it does not.
func TestLaneBudget(t *testing.T) {
	for _, tc := range []struct{ T, cols, most, want int }{
		{11, 100, graph.MaxWalkLanes, graph.MaxWalkLanes}, // the defaults: 32 full candidate lanes
		{11, 400, graph.MaxWalkLanes, 29},                 // the budget, not the width, caps the group
		{11, 10, scoreBlock, scoreBlock},
		{11, 5000, graph.MaxWalkLanes, 2},
		{11, 70000, graph.MaxWalkLanes, 1},
		{11, 70000, scoreBlock, 1},
	} {
		got := laneFit(tc.T, tc.cols, tc.most)
		if got != tc.want {
			t.Errorf("laneFit(%d, %d, %d) = %d, want %d", tc.T, tc.cols, tc.most, got, tc.want)
		}
		if got > 1 && got*4*tc.T*tc.cols > lanePosBytes {
			t.Errorf("laneFit(%d, %d, %d) = %d lanes exceed the budget", tc.T, tc.cols, tc.most, got)
		}
	}
}
