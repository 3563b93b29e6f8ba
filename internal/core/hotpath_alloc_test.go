package core

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
)

// This file is the dynamic half of the //lint:hotpath contract. The
// static half is simlint's hotalloc analyzer, which proves at build time
// that no allocation site is reachable from a marked kernel; here
// testing.AllocsPerRun re-checks the same kernels at runtime, so the
// static gate and the allocator must agree. AllocsPerRun's warm-up
// invocation absorbs the amortized scratch growth (the two suppressed
// make sites in scratch.go); the measured runs must then be exactly
// zero. A marker-coverage scan at the bottom pins the marked set, so
// adding //lint:hotpath to a new kernel without extending this test
// fails loudly.

// hotpathMarked lists every function carrying //lint:hotpath, keyed by
// "file-package.name", and doubles as this test's work list.
var hotpathKernels = []string{
	"core.buildFullTally",
	"core.cachedPlan",
	"core.dotPositions",
	"core.dotTally",
	"core.exactWalkDistInto",
	"core.get",
	"core.scoreLanes",
	"core.setRankSupport",
	"core.simulateCandWalks",
	"graph.StepWalks",
	"graph.WalkLanes",
	"graph.drawLaneSlots",
	"graph.drawSlots",
	"graph.gatherLive",
	"graph.loadSlots",
	"graph.stepLockstep",
	"graph.stepPhased",
}

func TestHotpathKernelsAllocFree(t *testing.T) {
	g := graph.CopyingModel(2000, 8, 0.3, 1)
	p := DefaultParams()
	p.Seed = 1
	e := Build(g, p)
	s := e.getScratch()
	defer e.putScratch(s)

	R, Rr, T := e.p.RScore, e.p.RRough, e.p.T
	u, v := uint32(1), uint32(3)
	var sink float64

	check := func(name string, runs int, f func()) {
		t.Helper()
		if allocs := testing.AllocsPerRun(runs, f); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", name, allocs)
		}
	}

	pos := s.walkBuf(R)
	lane := s.laneBuf(R)
	// StepWalks covers its gather, draw and load passes (gatherLive,
	// drawSlots, loadSlots).
	check("graph.StepWalks", 50, func() {
		resetWalks(pos, u)
		s.rng.Seed(e.candSeed(u))
		for t := 1; t < T; t++ {
			e.wt.StepWalks(&s.rng, pos, lane)
		}
	})

	check("simulateCandWalks+buildFullTally", 20, func() {
		s.rng.Seed(e.candSeed(v))
		e.simulateCandWalks(s, v, R)
		e.buildFullTally(s, v, R, Rr, R)
	})

	// The exact push, where it succeeds (vertex 500: a few hundred
	// relaxations over ten steps) and where it gives up at the budget.
	var wd walkDist
	for _, from := range []uint32{500, u} {
		fits := pushWork(e.Snapshot, s, from) <= e.p.pushBudget()
		if fits != (from == 500) {
			t.Fatalf("push from %d fits the budget: %v", from, fits)
		}
		check("exactWalkDistInto", 20, func() {
			if e.exactWalkDistInto(&wd, s, from, e.p.pushBudget()) != fits {
				t.Fatalf("push from %d changed its mind", from)
			}
		})
	}

	// The index's lane groups take WalkLanes' lockstep loop; scoreLanes
	// below takes its phased one.
	idxLanes := newWalkLanes(indexLanes, T*R)
	check("graph.WalkLanes (lockstep)", 20, func() {
		for l := range idxLanes {
			idxLanes[l].Start = uint32(2 + l)
			idxLanes[l].Rng.Seed(uint64(l))
		}
		e.wt.WalkLanes(idxLanes, 0, R, T-1, R)
	})

	// The scoring kernels need a query-side distribution.
	s.rng.Seed(e.candSeed(u))
	e.sampleWalkDistInto(&wd, s, u, R, &s.rng)

	// scoreLanes covers graph.WalkLanes' phased loop (stepPhased and its
	// passes: gatherLive, drawLaneSlots, loadSlots) and dotPositions: a
	// block of more candidates than one lane group, ending in a ragged
	// one, and in a ragged run of shareGroup; a floor of zero so every one
	// of them is refined, then a floor nothing reaches so none is.
	block := make([]boundedCand, 2*graph.MaxWalkLanes-1)
	if laneFit(T, R, graph.MaxWalkLanes) != graph.MaxWalkLanes || len(block)%shareGroup == 0 {
		t.Fatalf("a block of %d is not ragged at the lane width and the share group", len(block))
	}
	pend := make([]int32, len(block))
	for j := range block {
		block[j].v = uint32(2 + 5*j)
	}
	scores := make([]ShardCand, len(block))
	var stats QueryStats
	for _, floor := range []float64{0, 2} {
		check("scoreLanes", 20, func() {
			for j := range pend {
				pend[j] = int32(j)
				scores[j] = ShardCand{V: block[j].v}
			}
			e.scoreLanes(s, &wd, scores, pend, floor)
			sink += scores[0].Rough
		})
		// The dispatcher above it must add nothing on the one-worker path
		// (a WaitGroup declared before the fork would).
		check("scoreBlock", 20, func() {
			e.scoreBlock(s, block, scores, &wd, floor, 1, &stats)
			sink += scores[0].Rough
		})
	}
	s.rng.Seed(e.candSeed(v))
	e.simulateCandWalks(s, v, R)
	rsteps := e.buildFullTally(s, v, R, Rr, R)
	invR := 1 / float64(R)
	check("dotTally", 100, func() {
		sink += e.dotTally(&wd, s.tallyOff, s.tallyV, s.tallyCnt, invR, T)
	})

	// The cache hit path.
	c := newClockCache[tally](g.N(), 1<<20)
	c.put(newTallyEntry(v, rsteps, s))
	check("clockCache.get", 100, func() {
		if ent := c.get(v); ent != nil {
			sink += float64(ent.val.rsteps)
		}
	})

	// The plan hit path, and around it a whole warm query: at k = 1 the
	// one-element result slice is the only allocation.
	uq := uint32(500)
	if res, st := e.TopKStats(uq, 1); len(res) != 1 || st.Candidates < 10 {
		t.Fatalf("query %d: %d results of %d candidates, want a vertex with something to scan", uq, len(res), st.Candidates)
	}
	check("cachedPlan", 100, func() {
		if ent, plan := e.cachedPlan(uq); plan != nil {
			sink += float64(len(*plan)) + ent.val.wd.invR
		}
	})
	// (Not under the race detector: there sync.Pool drops scratches at
	// random, and a query that draws a fresh one allocates it.)
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(50, func() {
		res, _, _ := e.search(ctx, uq, 1, e.p.Theta, 1)
		sink += res[0].Score
	}); allocs != 1 && !raceEnabled {
		t.Errorf("warm search: %.1f allocs/op, want 1 (the result slice)", allocs)
	}

	// Wide supports: a query whose steps carry both directory kinds.
	// setRankSupport is covered by the sampler, both index kinds by
	// dotPositions; the sampler's rows and the hit tally grow once, in
	// AllocsPerRun's warm-up call.
	gw := graph.PreferentialAttachment(2000, 10, 0.4, 1)
	ew := New(gw, p)
	sw := ew.getScratch()
	defer ew.putScratch(sw)
	uw, vw := uint32(gw.N()-1), uint32(gw.N()-2)
	check("sampleWalkDistInto (dense steps)", 10, func() {
		sw.rng.Seed(ew.candSeed(uw))
		ew.sampleWalkDistInto(&sw.wd, sw, uw, ew.p.RAlpha, &sw.rng)
	})
	if dense, sparse := countKinds(&sw.wd); dense == 0 || sparse == 0 {
		t.Fatalf("query %d: %d dense and %d sparse steps, want both kinds", uw, dense, sparse)
	}
	sw.rng.Seed(ew.candSeed(vw))
	ew.simulateCandWalks(sw, vw, R)
	check("dotPositions (dense steps)", 100, func() {
		sink += ew.dotPositions(sw, &sw.wd, vw, sw.tpos, R, R, invR)
	})

	if sink == 0 {
		t.Log("scores summed to zero (fine; the sink only defeats dead-code elimination)")
	}
}

// TestHotpathMarkerCoverage scans the hot-path source directories for
// //lint:hotpath markers and requires the marked set to equal
// hotpathKernels, so the static root set and the dynamic alloc test
// above cannot drift apart silently.
func TestHotpathMarkerCoverage(t *testing.T) {
	marked := map[string]bool{}
	for _, dir := range []string{".", "../graph"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			name := strings.TrimSuffix(pkg.Name, "_test")
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Doc == nil {
						continue
					}
					for _, cm := range fd.Doc.List {
						if strings.HasPrefix(strings.TrimSpace(cm.Text), "//lint:hotpath") {
							marked[name+"."+fd.Name.Name] = true
						}
					}
				}
			}
		}
	}
	var got []string
	for k := range marked {
		got = append(got, k)
	}
	sort.Strings(got)
	want := append([]string{}, hotpathKernels...)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("marked hot set %v != alloc-tested set %v; extend hotpathKernels and TestHotpathKernelsAllocFree", got, want)
	}
}
