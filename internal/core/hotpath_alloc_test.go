package core

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
)

// This file holds the //lint:hotpath contract: every marked kernel
// allocates nothing. testing.AllocsPerRun runs each of them;
// AllocsPerRun's warm-up invocation absorbs the amortized scratch growth
// (the make sites in scratch.go and bounds.go that grow a pooled buffer
// to its steady size); the measured runs must then be exactly zero. A
// marker-coverage scan at the bottom pins the marked set, so adding
// //lint:hotpath to a new kernel without extending this test fails
// loudly.

// hotpathMarked lists every function carrying //lint:hotpath, keyed by
// "file-package.name", and doubles as this test's work list.
var hotpathKernels = []string{
	"core.backwardInto",
	"core.build",
	"core.cachedPlan",
	"core.candWalks",
	"core.clear",
	"core.dotPositions",
	"core.get",
	"core.linearForwardInto",
	"core.pushWalkDistInto",
	"core.scoreLanes",
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

	R, T := e.p.RScore, e.p.T
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

	// The push, from a vertex it pushes whole (500: a few hundred
	// relaxations over ten steps) and from a hub whose share floor holds
	// mass back, and then without the floor.
	var wd walkDist
	for _, from := range []uint32{500, u} {
		e.walkDistInto(&wd, s, from)
		if held := heldBack(e.Snapshot, &wd, e.p.RAlpha); held != (from == u) {
			t.Fatalf("push from %d holds mass back: %v", from, held)
		}
		check("pushWalkDistInto", 20, func() { e.walkDistInto(&wd, s, from) })
		check("pushWalkDistInto (no floor)", 20, func() { e.pushWalkDistInto(&wd, s, from, 0, true) })
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

	// scoreLanes covers candWalks, graph.WalkLanes' phased loop
	// (stepPhased and its passes: gatherLive, drawLaneSlots, loadSlots)
	// and dotPositions: a block of more candidates than one lane group,
	// ending in a ragged one; a floor of zero so every one of them is
	// refined, then a floor nothing reaches so none is. The walks stop at the query side's horizon h,
	// so it runs at every length a walk takes: all T−1 steps (h = T),
	// a few, and none (h = 1).
	block := make([]boundedCand, 2*graph.MaxWalkLanes-1)
	if laneFit(T, R, graph.MaxWalkLanes) != graph.MaxWalkLanes {
		t.Fatalf("a block of %d is not ragged at the lane width", len(block))
	}
	for j := range block {
		block[j].v = uint32(2 + 5*j)
	}
	scores := make([]ShardCand, len(block))
	for _, h := range []int{T, 4, 1} {
		e.pushWalkDistInto(&wd, s, u, 0, true)
		wd.trim(h)
		if wd.steps() != h {
			t.Fatalf("query %d trimmed at %d keeps %d steps", u, h, wd.steps())
		}
		check(fmt.Sprintf("slotIndex build+clear h=%d", h), 20, func() {
			s.slots.build(&wd, s.n)
			s.slots.clear()
		})
		for _, floor := range []float64{0, 2} {
			s.slots.build(&wd, s.n)
			check(fmt.Sprintf("scoreLanes h=%d", h), 20, func() {
				for j := range scores {
					scores[j] = ShardCand{V: block[j].v}
				}
				e.scoreLanes(s, &s.slots, scores, floor)
				sink += scores[0].Rough
			})
			// The dispatcher above it must add nothing.
			check(fmt.Sprintf("scoreBlock h=%d", h), 20, func() {
				e.scoreBlock(s, block, scores, &s.slots, floor)
				sink += scores[0].Rough
			})
			s.slots.clear()
		}
	}
	// The cache hit path.
	c := newClockCache[[]boundedCand](g.N(), 1<<20)
	c.put(newRowEntry(v, block))
	check("clockCache.get", 100, func() {
		if ent := c.get(v); ent != nil {
			sink += ent.val[0].ub
		}
	})

	// The plan hit path, and around it a whole warm query: at k = 1 the
	// one-element result slice is the only allocation.
	uq := uint32(500)
	if res, st := e.TopKStats(uq, 1); len(res) != 1 || st.Candidates < 10 {
		t.Fatalf("query %d: %d results of %d candidates, want a vertex with something to scan", uq, len(res), st.Candidates)
	}
	check("cachedPlan", 100, func() {
		if ent := e.cachedPlan(uq); ent != nil {
			sink += float64(len(ent.val.plan)) + float64(ent.val.wd.T)
		}
	})
	// (Not under the race detector: there sync.Pool drops scratches at
	// random, and a query that draws a fresh one allocates it.)
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(50, func() {
		res, _, _ := e.search(ctx, uq, 1, e.p.Theta)
		sink += res[0].Score
	}); allocs != 1 && !raceEnabled {
		t.Errorf("warm search: %.1f allocs/op, want 1 (the result slice)", allocs)
	}

	// The linear scorer: its first-touch forward and the backward pass from
	// a vertex whose pass prunes nothing at the serving θ's ε and from the
	// hub (a few hundred relaxations), and around them a whole linear query,
	// whose result slice is again its one allocation. The dense
	// accumulator comes with the scratch's first linear query, and the
	// backward pass's source list grows to its size, in the warm-up call.
	el := New(g, linearParams())
	sl := el.getScratch()
	defer el.putScratch(sl)
	for _, from := range []uint32{500, hub(g)} {
		check(fmt.Sprintf("linearForwardInto from %d", from), 20, func() { el.linearForwardInto(&sl.wd, sl, from) })
		check(fmt.Sprintf("backwardInto from %d", from), 20, func() {
			row, _, _, _ := el.backwardInto(ctx, sl, &sl.wd, el.p.Theta/linearEpsDiv)
			for _, v := range row.touched {
				sink += row.val[v]
			}
			row.clear()
		})
	}
	if allocs := testing.AllocsPerRun(50, func() {
		res, _, _ := el.search(ctx, uq, 1, el.p.Theta)
		sink += res[0].Score
	}); allocs != 1 && !raceEnabled {
		t.Errorf("linear search: %.1f allocs/op, want 1 (the result slice)", allocs)
	}

	// Wide supports: a query whose middle steps hold hundreds of vertices
	// and more. The push's rows, the index's rows and union and the hit
	// tally grow once, in AllocsPerRun's warm-up call.
	gw := graph.PreferentialAttachment(2000, 10, 0.4, 1)
	ew := New(gw, p)
	sw := ew.getScratch()
	defer ew.putScratch(sw)
	uw, vw := uint32(gw.N()-1), uint32(gw.N()-2)
	check("pushWalkDistInto (wide steps)", 10, func() {
		ew.walkDistInto(&sw.wd, sw, uw)
	})
	if widest := widestStep(&sw.wd); widest < gw.N()/32 {
		t.Fatalf("query %d: widest step %d of %d vertices, want a wide one", uw, widest, gw.N())
	}
	check("slotIndex build+clear (wide steps)", 10, func() {
		sw.slots.build(&sw.wd, sw.n)
		sw.slots.clear()
	})
	wpos := make([]uint32, T*R)
	ew.candWalks([]graph.WalkLane{{Start: vw, Out: wpos}}, 0, R, T-1, R)
	sw.slots.build(&sw.wd, sw.n)
	check("dotPositions (wide steps)", 100, func() {
		sink += ew.dotPositions(sw, &sw.slots, vw, wpos, R, R, 1/float64(R))
	})
	sw.slots.clear()

	if sink == 0 {
		t.Log("scores summed to zero (fine; the sink only defeats dead-code elimination)")
	}
}

// TestHotpathMarkerCoverage scans the hot-path source directories for
// //lint:hotpath markers and requires the marked set to equal
// hotpathKernels, so the markers and the alloc test above cannot drift
// apart silently.
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
