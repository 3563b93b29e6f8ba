package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/rng"
)

// linearParams is DefaultParams under the linear scorer.
func linearParams() Params {
	p := DefaultParams()
	p.Strategy = CandidatesLinear
	return p
}

// linearDense runs the forward and backward passes of a linear query at u
// with prune threshold eps, as linearRow does, and returns the whole row dense, the bound Δ on
// exact − ŝ (the backward pass's slack plus pushSlack), and the number of
// relaxations the backward pass made.
func linearDense(e *Snapshot, u uint32, eps float64) (row []float64, delta float64, relax int) {
	s := e.getScratch()
	defer e.putScratch(s)
	e.linearForwardInto(&s.wd, s, u)
	acc, slack, relax, _ := e.backwardInto(context.Background(), s, &s.wd, eps)
	row = make([]float64, e.g.N())
	for _, v := range acc.touched {
		row[v] = acc.val[v]
	}
	acc.clear()
	return row, slack + pushSlack(e, &s.wd), relax
}

// pushSlack bounds what the mass the push held back costs any one score:
// Σ_{t≥1} cᵗ·maxD·H_t, with H_t the mass held back at the steps before t.
// The exact xₜ exceeds the pushed one by at most H_t in L1 (a step of P
// never adds mass), and step t of the series weighs a difference δ by
// cᵗ·Σ_w δ(w)·D_ww·(Qᵗ)(v,w) ≤ cᵗ·maxD·|δ|₁.
func pushSlack(e *Snapshot, wd *walkDist) float64 {
	maxD := 0.0
	for w := range e.g.N() {
		maxD = max(maxD, e.p.dval(uint32(w)))
	}
	minShare := 1 / float64(e.p.RAlpha)
	held, sum := 0.0, 0.0
	for t := 1; t < e.p.T; t++ {
		for i, w := range wd.verts[t-1] {
			if k := e.g.InDegree(w); k > 0 && wd.mass(t-1, i)/float64(k) < minShare {
				held += wd.mass(t-1, i)
			}
		}
		sum += e.cpow[t] * maxD * held
	}
	return sum
}

// refBackward is the backward pass as it ran in two accumulators before
// the survivors were lifted out of one: r_t starts as d ⊙ xₜ in the second
// and the sources of r_{t+1} scatter into it from the first, pruned by the
// same rule. It returns r_0 dense, the vertices r_0 holds mass at, the
// slack and the relaxations, which backwardInto must match
// (TestBackwardMatchesTwoAccumulators).
func refBackward(e *Snapshot, wd *walkDist, eps float64) (row []float64, verts []uint32, slack float64, relax int) {
	n := e.g.N()
	cur := &rowAcc{val: make([]float64, n)}
	nxt := &rowAcc{val: make([]float64, n)}
	h := wd.steps()
	if h == 0 {
		return cur.val, nil, 0, 0
	}
	diag := func(a *rowAcc, t int) {
		for i, w := range wd.verts[t] {
			if m := e.p.dval(w) * wd.mass(t, i); m > 0 {
				a.add(w, m)
			}
		}
	}
	diag(cur, h-1)
	for t := h - 2; t >= 0; t-- {
		diag(nxt, t)
		ct, pruned := e.cpow[t+1], 0.0
		for _, i := range cur.touched {
			r := cur.val[i]
			cur.val[i] = 0
			if w := ct * r; w < eps {
				pruned = max(pruned, w)
				continue
			}
			cr := e.p.C * r
			out := e.g.Out(i)
			for _, j := range out {
				nxt.add(j, cr/float64(e.g.InDegree(j)))
			}
			relax += len(out)
		}
		cur.touched = cur.touched[:0]
		slack += pruned
		cur, nxt = nxt, cur
	}
	return cur.val, cur.touched, slack, relax
}

// requireMatchesRef runs backwardInto over s.wd at eps and fails unless it
// matches refBackward: the same relaxations, the same row vertices, and
// every score and the slack within 1e-12 relative. It returns the largest
// relative difference and leaves the accumulator clear.
func requireMatchesRef(t testing.TB, label string, e *Snapshot, s *scratch, eps float64) (worst float64) {
	t.Helper()
	want, wantVerts, wantSlack, wantRelax := refBackward(e, &s.wd, eps)
	row, slack, relax, _ := e.backwardInto(context.Background(), s, &s.wd, eps)
	defer row.clear()
	if relax != wantRelax {
		t.Fatalf("%s: %d relaxations, two accumulators %d", label, relax, wantRelax)
	}
	got, w := slices.Clone(row.touched), slices.Clone(wantVerts)
	slices.Sort(got)
	slices.Sort(w)
	if !slices.Equal(got, w) {
		t.Fatalf("%s: row holds %d vertices, two accumulators %d (or others)", label, len(got), len(w))
	}
	rel := func(got, want float64) float64 {
		if got == want {
			return 0
		}
		return math.Abs(got-want) / math.Abs(want)
	}
	for _, v := range row.touched {
		if d := rel(row.val[v], want[v]); d > 1e-12 {
			t.Fatalf("%s: ŝ(%d) = %.17g, two accumulators %.17g", label, v, row.val[v], want[v])
		} else {
			worst = max(worst, d)
		}
	}
	if d := rel(slack, wantSlack); d > 1e-12 {
		t.Fatalf("%s: slack %.17g, two accumulators %.17g", label, slack, wantSlack)
	}
	return worst
}

// TestBackwardMatchesTwoAccumulators holds the one-accumulator backward
// pass to the two-accumulator kernel it replaced (refBackward), from the
// hub and 64 spread vertices of every fixture at the serving θ's ε: the
// survivors lifted out before the scatter and the diagonal added after it
// scatter every source the old order did and sum every score the same,
// up to the order of each sum. The citation DAG runs once more with
// d(w) = 1e-5 at every even w: there level 0 holds an entry below ε that
// no scatter reaches (nothing leads back to u), which addDiag must keep.
func TestBackwardMatchesTwoAccumulators(t *testing.T) {
	fixtures := linearFixtures()
	dag := fixtures["golden-citation"]
	tiny := linearParams()
	tiny.D = make([]float64, dag.N())
	for w := range tiny.D {
		tiny.D[w] = []float64{1e-5, 1 - tiny.C}[w%2]
	}
	fixtures["citation-tiny-d"] = dag
	for name, g := range fixtures {
		p := linearParams()
		if name == "citation-tiny-d" {
			p = tiny
		}
		e := New(g, p).Snapshot
		s := e.getScratch()
		us := []uint32{hub(g)}
		for _, x := range rng.New(6).Perm(g.N())[:64] {
			us = append(us, uint32(x))
		}
		worst := 0.0
		for _, u := range us {
			e.linearForwardInto(&s.wd, s, u)
			worst = max(worst, requireMatchesRef(t, fmt.Sprintf("%s u=%d", name, u), e, s, e.p.Theta/linearEpsDiv))
		}
		e.putScratch(s)
		t.Logf("%s: largest relative score difference %.3g", name, worst)
	}
}

// denseBackward is the backward pass as a dense recurrence over every vertex,
// with the same prune rule: r_t = d ⊙ xₜ + c·Q r_{t+1}, where a source i of
// level t+1 is left out when c^(t+1)·r(i) < eps.
func denseBackward(e *Snapshot, wd *walkDist, eps float64) []float64 {
	n := e.g.N()
	r := make([]float64, n)
	h := wd.steps()
	if h == 0 {
		return r
	}
	diag := func(t int, into []float64) {
		for i, w := range wd.verts[t] {
			into[w] += e.p.dval(w) * wd.mass(t, i)
		}
	}
	diag(h-1, r)
	for t := h - 2; t >= 0; t-- {
		next := make([]float64, n)
		diag(t, next)
		for i := range n {
			if r[i] == 0 || math.Pow(e.p.C, float64(t+1))*r[i] < eps {
				continue
			}
			for _, j := range e.g.Out(uint32(i)) {
				next[j] += e.p.C * r[i] / float64(e.g.InDegree(j))
			}
		}
		r = next
	}
	return r
}

// requireWithinDelta fails unless every cell of the row is at most the
// exact series' (one-sided error) and at most delta below it.
func requireWithinDelta(t testing.TB, label string, row, want []float64, delta float64) (worst float64) {
	t.Helper()
	for v := range row {
		if row[v] > want[v]+1e-12 {
			t.Fatalf("%s: ŝ(%d) = %.17g above the exact %.17g", label, v, row[v], want[v])
		}
		if d := want[v] - row[v]; d > delta+1e-12 {
			t.Fatalf("%s: ŝ(%d) = %.17g is %.3g below the exact %.17g, past Δ = %.3g", label, v, row[v], d, want[v], delta)
		} else {
			worst = max(worst, d)
		}
	}
	return worst
}

// linearFixtures are the graphs the linear scorer's error is gated on: the
// golden corpus's four and TestAccuracyOverSeeds' two.
func linearFixtures() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"golden-copying":   graph.CopyingModel(3000, 6, 0.3, 21),
		"golden-collab":    graph.Collaboration(400, 5, 0.8, 40, 7),
		"golden-pa":        graph.PreferentialAttachment(1500, 5, 0.3, 9),
		"golden-citation":  graph.CitationDAG(800, 4, 3),
		"accuracy-copying": graph.CopyingModel(3000, 6, 0.3, 11),
		"accuracy-pa":      graph.PreferentialAttachment(3000, 10, 0.4, 11),
	}
}

// TestLinearErrorOneSidedAndBounded holds every cell of a linear row to
// the exact truncated series: never above it, and at most Δ below it, Δ
// computed for the query (linear.go), at the serving θ and a lower one.
// The queries are 16 spread vertices of each fixture and its hub.
func TestLinearErrorOneSidedAndBounded(t *testing.T) {
	for name, g := range linearFixtures() {
		e := New(g, linearParams()).Snapshot
		d := exact.UniformDiagonal(g.N(), e.p.C)
		us := []uint32{hub(g)}
		for _, x := range rng.New(5).Perm(g.N())[:16] {
			us = append(us, uint32(x))
		}
		worst, bound := 0.0, 0.0
		for _, u := range us {
			want := exact.SingleSource(g, d, e.p.C, e.p.T, u)
			for _, theta := range []float64{e.p.Theta, 0.002} {
				row, delta, _ := linearDense(e, u, theta/linearEpsDiv)
				w := requireWithinDelta(t, fmt.Sprintf("%s u=%d θ=%g", name, u, theta), row, want, delta)
				worst, bound = max(worst, w), max(bound, delta)
			}
		}
		t.Logf("%s: largest error %.3g, largest Δ %.3g", name, worst, bound)
	}
}

// TestLinearForwardMatchesPush holds the linear scorer's forward to the
// Monte-Carlo query side it stands beside: from the hub and 64 spread
// vertices of every fixture, each step of linearForwardInto holds the
// vertices of walkDistInto's step, in first-touch order, with every mass
// within 1e-14 relative (the two sum the same shares in another order).
// Some step must be out of ascending order, or first-touch order would go
// untested.
func TestLinearForwardMatchesPush(t *testing.T) {
	for name, g := range linearFixtures() {
		e := New(g, linearParams()).Snapshot
		s := e.getScratch()
		us := []uint32{hub(g)}
		for _, x := range rng.New(8).Perm(g.N())[:64] {
			us = append(us, uint32(x))
		}
		var sorted, ft walkDist
		unordered, worst := 0, 0.0
		for _, u := range us {
			e.walkDistInto(&sorted, s, u)
			e.linearForwardInto(&ft, s, u)
			if ft.steps() != sorted.steps() {
				t.Fatalf("%s u=%d: %d steps, the push %d", name, u, ft.steps(), sorted.steps())
			}
			for step := range ft.steps() {
				if !slices.IsSorted(ft.verts[step]) {
					unordered++
				}
				vs := slices.Clone(ft.verts[step])
				slices.Sort(vs)
				if !slices.Equal(vs, sorted.verts[step]) {
					t.Fatalf("%s u=%d step %d: vertices %v, the push %v", name, u, step, ft.verts[step], sorted.verts[step])
				}
				for i, w := range ft.verts[step] {
					got, want := ft.mass(step, i), sorted.mass(step, sorted.lookup(step, w))
					rel := math.Abs(got-want) / want
					if rel > 1e-14 {
						t.Fatalf("%s u=%d step %d: mass at %d %.17g, the push %.17g", name, u, step, w, got, want)
					}
					worst = max(worst, rel)
				}
			}
		}
		e.putScratch(s)
		t.Logf("%s: %d steps out of ascending order, largest relative difference %.3g", name, unordered, worst)
		if unordered == 0 {
			t.Errorf("%s: every step of every query came out ascending", name)
		}
	}
}

// hub returns g's vertex of largest in-degree, the lowest such id.
func hub(g *graph.Graph) uint32 {
	best := uint32(0)
	for v := range uint32(g.N()) {
		if g.InDegree(v) > g.InDegree(best) {
			best = v
		}
	}
	return best
}

// TestLinearHubWork pins the backward work of the worst query of the
// social-shaped accuracy fixture at the serving θ: the vertex whose pass
// relaxes the most edges, and how many. A change that moves either changes
// what a hub query costs, which is what the prune rule is there to bound.
func TestLinearHubWork(t *testing.T) {
	g := graph.PreferentialAttachment(3000, 10, 0.4, 11)
	e := New(g, linearParams()).Snapshot
	worst, most, total := uint32(0), 0, 0
	for u := range uint32(g.N()) {
		_, _, relax := linearDense(e, u, e.p.Theta/linearEpsDiv)
		total += relax
		if relax > most {
			worst, most = u, relax
		}
	}
	t.Logf("worst query %d (in-degree %d): %d relaxations; mean %.1f", worst, g.InDegree(worst), most, float64(total)/float64(g.N()))
	if worst != 766 || most != 6629 {
		t.Errorf("worst query %d relaxes %d edges, want %d relaxing %d", worst, most, 766, 6629)
	}
}

// TestLinearIdenticalAcrossCacheAndWorkers holds linear answers and scan
// stats to byte identity with the row cache off, roomy and evicting, for
// Workers 1, 2 and 5, at k below and above the row's length, asked twice
// (the second time from the cache where there is one), in a batch, and as
// threshold queries at the serving θ (through the cache) and off it
// (around it).
func TestLinearIdenticalAcrossCacheAndWorkers(t *testing.T) {
	g := graph.PreferentialAttachment(2000, 10, 0.4, 3)
	base := linearParams()
	base.Workers = 1
	want := Build(g, base)
	us := []uint32{hub(g), 0, 7, 999, 1998, 1999}
	for _, x := range rng.New(9).Perm(g.N())[:10] {
		us = append(us, uint32(x))
	}
	longest := 0
	for _, u := range us {
		longest = max(longest, len(want.Threshold(u, base.Theta)))
	}
	ks := []int{1, 5, 20, longest + 1}
	if longest < 20 {
		t.Fatalf("longest row %d: no query has a row longer than k = 20", longest)
	}
	variants := map[string]func(*Params){
		"workers2":  func(p *Params) { p.Workers = 2 },
		"workers5":  func(p *Params) { p.Workers = 5 },
		"cached":    func(p *Params) { p.CacheBytes = 1 << 20 },
		"evicting":  func(p *Params) { p.CacheBytes = 2 << 10 },
		"cached-w5": func(p *Params) { p.CacheBytes = 1 << 20; p.Workers = 5 },
	}
	for name, edit := range variants {
		p := base
		edit(&p)
		e := Build(g, p)
		for _, k := range ks {
			for _, u := range us {
				wantRes, wantStats := want.TopKStats(u, k)
				for rep := range 2 {
					res, stats := e.TopKStats(u, k)
					sameAnswer(t, fmt.Sprintf("%s k=%d u=%d rep=%d", name, k, u, rep), res, scanStats(stats), wantRes, wantStats)
				}
			}
			res, sts := e.TopKBatch(us, k)
			for i, u := range us {
				wantRes, wantStats := want.TopKStats(u, k)
				sameAnswer(t, fmt.Sprintf("%s batch k=%d u=%d", name, k, u), res[i], scanStats(sts[i]), wantRes, wantStats)
			}
		}
		for _, theta := range []float64{base.Theta, 0.02, 1} {
			for _, u := range us {
				if got, w := e.Threshold(u, theta), want.Threshold(u, theta); !slices.Equal(got, w) {
					t.Fatalf("%s θ=%g u=%d: %v, want %v", name, theta, u, got, w)
				}
			}
		}
		st := e.CacheStats()
		switch {
		case p.CacheBytes == 0 && st != (CacheStats{}):
			t.Fatalf("%s: cache stats %+v without a cache", name, st)
		case p.CacheBytes > 0 && (st.Hits == 0 || st.Misses == 0):
			t.Fatalf("%s: cache stats %+v", name, st)
		case name == "evicting" && st.Evictions == 0:
			t.Fatalf("%s: cache stats %+v, want evictions", name, st)
		case name != "evicting" && st.Evictions+st.Rejected != 0:
			t.Fatalf("%s: cache stats %+v, want every row kept", name, st)
		}
		if st := e.PrologStats(); st != (CacheStats{}) {
			t.Fatalf("%s: prolog stats %+v under the linear scorer", name, st)
		}
	}
}

// TestLinearThresholdHoldsTopK holds threshold answers to the top-k answers
// they overlap: at any θ', every top-k entry scoring at least θ' is in the
// threshold answer, with its score when θ' is at or above the serving θ
// (both read the one serving row) and with at least its score below it (a
// row of its own, pruned less). A threshold at or above the serving θ reads
// the row cache; one below it does not.
func TestLinearThresholdHoldsTopK(t *testing.T) {
	g := graph.PreferentialAttachment(2000, 10, 0.4, 3)
	p := linearParams()
	p.CacheBytes = 1 << 20
	e := Build(g, p)
	us := []uint32{hub(g), 0, 7, 999, 1999}
	for _, x := range rng.New(4).Perm(g.N())[:20] {
		us = append(us, uint32(x))
	}
	for _, theta := range []float64{p.Theta / 5, p.Theta / 2, p.Theta, 0.02, 0.05, 0.2} {
		for _, u := range us {
			top := e.TopK(u, g.N())
			before := e.CacheStats()
			thr := e.Threshold(u, theta)
			after := e.CacheStats()
			lookups := int64(0)
			if theta >= p.Theta {
				lookups = 1
			}
			if got := after.Hits + after.Misses - before.Hits - before.Misses; got != lookups {
				t.Fatalf("θ=%g u=%d: %d row-cache lookups, want %d", theta, u, got, lookups)
			}
			got := make(map[uint32]float64, len(thr))
			for _, r := range thr {
				got[r.V] = r.Score
			}
			for _, r := range top {
				if r.Score < theta {
					continue
				}
				sc, ok := got[r.V]
				switch {
				case !ok:
					t.Fatalf("θ=%g u=%d: top-k has %d at %.6g, the threshold answer lacks it", theta, u, r.V, r.Score)
				case theta >= p.Theta && sc != r.Score, sc < r.Score:
					t.Fatalf("θ=%g u=%d: %d scores %.17g, top-k %.17g", theta, u, r.V, sc, r.Score)
				}
			}
		}
	}
}

// countdownCtx is a context whose Err is nil for its first n calls and
// context.Canceled from then on: a cancellation at a chosen check.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestLinearRowCancelsBetweenLevels holds the backward pass to one context
// check per level: a full pass makes one per level after the first, and a
// cancellation at any of them ends the pass there with ctx's error and
// the accumulator clear, so the scratch serves the next query exactly.
// θ = 1e-9 prunes nothing, the longest pass a query can ask for.
func TestLinearRowCancelsBetweenLevels(t *testing.T) {
	g := graph.PreferentialAttachment(2000, 10, 0.4, 3)
	e := New(g, linearParams()).Snapshot
	const theta = 1e-9
	u := hub(g)
	s := e.getScratch()
	defer e.putScratch(s)
	full := &countdownCtx{context.Background(), 1 << 30}
	want, err := e.linearRow(full, s, u, theta)
	if err != nil {
		t.Fatal(err)
	}
	want = slices.Clone(want)
	levels := s.wd.steps() - 1
	if checks := 1<<30 - full.n; checks != levels || levels < 2 {
		t.Fatalf("a full pass made %d context checks over %d levels", checks, levels)
	}
	for stop := range levels {
		if _, err := e.linearRow(&countdownCtx{context.Background(), stop}, s, u, theta); err != context.Canceled {
			t.Fatalf("cancelled at check %d: %v", stop, err)
		}
		if a := s.lin; len(a.touched) != 0 || slices.ContainsFunc(a.val, func(x float64) bool { return x != 0 }) {
			t.Fatalf("cancelled at check %d: the accumulator left %d touched", stop, len(a.touched))
		}
	}
	if got, _ := e.linearRow(context.Background(), s, u, theta); !slices.Equal(got, want) {
		t.Fatal("the row after cancelled passes differs from the first")
	}
	// The served entry points pass their context down: cancelled at the
	// first level, a threshold query and a shard scan return its error.
	if _, _, err := e.search(&countdownCtx{context.Background(), 1}, u, 0, theta); err != context.Canceled {
		t.Fatalf("search: %v", err)
	}
	if _, _, err := e.shardScan(&countdownCtx{context.Background(), 1}, u, theta, 0, uint32(g.N()), nil); err != context.Canceled {
		t.Fatalf("shard scan: %v", err)
	}
}

// TestLinearSnapshotPersists round-trips an index-less snapshot: a linear
// build saves the graph sections alone, and it loads — read or mapped —
// into a snapshot that answers exactly as the build does. So does a file
// with H, saved under the paper's parameters and loaded under the linear
// scorer's.
func TestLinearSnapshotPersists(t *testing.T) {
	g := graph.CopyingModel(600, 5, 0.3, 4)
	lp := linearParams()
	lp.Workers = 1
	want := Build(g, lp)
	if want.idx != nil || len(want.sectionPlan()) != 4 {
		t.Fatalf("a linear build has an index: %d sections", len(want.sectionPlan()))
	}
	hp := DefaultParams()
	hp.Workers = 1
	files := map[string]*Engine{"linear": want, "with H": Build(g, hp)}
	dir := t.TempDir()
	for name, src := range files {
		var buf bytes.Buffer
		if err := src.SaveIndex(&buf); err != nil {
			t.Fatal(err)
		}
		read, err := LoadIndex(g, lp, bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		path := filepath.Join(dir, name+".simr")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		mapped, closer, err := LoadIndexMmap(path, lp)
		if err != nil {
			t.Fatalf("%s mapped: %v", name, err)
		}
		for u := range uint32(g.N()) {
			wantRes, wantStats := want.TopKStats(u, 20)
			for how, e := range map[string]*Engine{"read": read, "mapped": mapped} {
				res, stats := e.TopKStats(u, 20)
				sameAnswer(t, fmt.Sprintf("%s %s u=%d", name, how, u), res, stats, wantRes, wantStats)
				if got, w := e.Threshold(u, 0.02), want.Threshold(u, 0.02); !slices.Equal(got, w) {
					t.Fatalf("%s %s u=%d: threshold %v, want %v", name, how, u, got, w)
				}
			}
		}
		if err := closer(); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzLinearRow holds the linear scorer to its properties on small random
// graphs, from a random u at a random θ: every cell of the row is at most
// the exact series and at most Δ below it, the row agrees to 1e-12 with
// the dense recurrence under the same prune rule (denseBackward) and with
// the two-accumulator kernel (refBackward, requireMatchesRef), and the
// query's plan is the row's cells at or above θ but u's, the same bit for
// bit on a second run.
func FuzzLinearRow(f *testing.F) {
	f.Add(uint8(12), []byte{0, 1, 1, 2, 2, 0, 3, 1, 4, 2, 5, 5, 6, 1, 7, 1}, uint8(1), uint16(9))
	f.Add(uint8(1), []byte{}, uint8(0), uint16(0))
	f.Add(uint8(40), []byte("a dense enough edge list for a few dozen vertices"), uint8(7), uint16(999))
	f.Fuzz(func(t *testing.T, nv uint8, edges []byte, from uint8, th uint16) {
		n := 1 + int(nv%48)
		b := graph.NewBuilder(n)
		for i := 0; i+1 < len(edges); i += 2 {
			b.AddEdge(uint32(int(edges[i])%n), uint32(int(edges[i+1])%n))
		}
		g := b.Build()
		e := New(g, linearParams()).Snapshot
		u := uint32(int(from) % n)
		theta := float64(1+int(th)%1000) / 1000
		eps := theta / linearEpsDiv
		label := fmt.Sprintf("n=%d u=%d θ=%g", n, u, theta)

		row, delta, _ := linearDense(e, u, eps)
		requireWithinDelta(t, label, row, exact.SingleSource(g, exact.UniformDiagonal(n, e.p.C), e.p.C, e.p.T, u), delta)
		s := e.getScratch()
		defer e.putScratch(s)
		e.linearForwardInto(&s.wd, s, u)
		for v, want := range denseBackward(e, &s.wd, eps) {
			if math.Abs(row[v]-want) > 1e-12 {
				t.Fatalf("%s: ŝ(%d) = %.17g, the dense recurrence %.17g", label, v, row[v], want)
			}
		}
		requireMatchesRef(t, label, e, s, eps)

		first, _ := e.linearRow(context.Background(), s, u, theta)
		first = slices.Clone(first)
		if again, _ := e.linearRow(context.Background(), s, u, theta); !slices.Equal(first, again) {
			t.Fatalf("%s: second run %v, first %v", label, again, first)
		}
		var want []boundedCand
		for v, sc := range row {
			if sc >= theta && uint32(v) != u {
				want = append(want, boundedCand{uint32(v), sc})
			}
		}
		sortBounds(want)
		if !slices.Equal(first, want) {
			t.Fatalf("%s: plan %v, the row's cells at θ %v", label, first, want)
		}
	})
}
