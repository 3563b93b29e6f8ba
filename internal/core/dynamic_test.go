package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
)

func dynParams() Params {
	p := DefaultParams()
	p.Seed = 3
	p.Workers = 2
	p.Strategy = CandidatesHybrid
	return p
}

func TestDynamicBasicLifecycle(t *testing.T) {
	d := NewDynamic(6, dynParams())
	defer d.Close()
	// 1, 2, 3 all link to both 4 and 5.
	for _, src := range []uint32{1, 2, 3} {
		if err := d.AddEdge(src, 4); err != nil {
			t.Fatal(err)
		}
		if err := d.AddEdge(src, 5); err != nil {
			t.Fatal(err)
		}
	}
	if d.M() != 6 {
		t.Fatalf("m = %d", d.M())
	}
	s, err := d.SinglePair(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
		t.Fatalf("s(4,5) = %v, want positive", s)
	}
	top, err := d.TopK(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 || top[0].V != 5 {
		t.Fatalf("TopK(4) = %v", top)
	}
}

func TestDynamicUpdateChangesScores(t *testing.T) {
	d := NewDynamic(8, dynParams())
	// Initially 4 and 5 share in-links {1,2}.
	for _, src := range []uint32{1, 2} {
		d.AddEdge(src, 4)
		d.AddEdge(src, 5)
	}
	before, err := d.SinglePair(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Now give 5 two extra unshared in-links: similarity must drop.
	// Queries serve the stale snapshot until a refresh, so apply the
	// batch synchronously before re-querying.
	d.AddEdge(6, 5)
	d.AddEdge(7, 5)
	if err := d.Refresh(); err != nil {
		t.Fatal(err)
	}
	after, err := d.SinglePair(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("similarity did not drop after diluting in-links: %v -> %v", before, after)
	}
	// Removing the extra links restores the original score exactly
	// (same edge set, same seeds).
	d.RemoveEdge(6, 5)
	d.RemoveEdge(7, 5)
	if err := d.Refresh(); err != nil {
		t.Fatal(err)
	}
	restored, err := d.SinglePair(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if restored != before {
		t.Fatalf("restored score %v != original %v", restored, before)
	}
}

func TestDynamicMatchesFullRebuild(t *testing.T) {
	// Incremental refresh must answer queries identically to an engine
	// built from scratch on the same final graph with the same seed. The
	// social fixture's sparse reciprocity puts about 400 vertices in the
	// affected set (more than one preprocess chunk, under half the graph).
	fixtures := []struct {
		name    string
		g       *graph.Graph
		updates func(d *DynamicEngine)
	}{
		{"copying", graph.CopyingModel(400, 4, 0.3, 9), func(d *DynamicEngine) {
			d.AddEdge(17, 23)
			d.AddEdge(301, 55)
			d.RemoveEdge(1, 0)
		}},
		{"preferential", graph.PreferentialAttachment(1200, 4, 0.05, 9), func(d *DynamicEngine) {
			d.AddEdge(1100, 50)
			d.AddEdge(7, 900)
		}},
	}
	for _, fx := range fixtures {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", fx.name, workers), func(t *testing.T) {
				p := dynParams()
				p.Workers = workers
				d := NewDynamicFrom(fx.g, p)
				defer d.Close()
				if _, err := d.TopK(0, 5); err != nil { // force initial build
					t.Fatal(err)
				}
				fx.updates(d)
				if err := d.Refresh(); err != nil {
					t.Fatal(err)
				}
				if inc, full := d.Refreshes(); inc != 1 || full != 1 {
					t.Fatalf("refresh counts: inc=%d full=%d", inc, full)
				}
				eng, err := d.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				fresh := Build(eng.Graph(), p)
				// γ rows must match for every vertex: affected ones were
				// recomputed with the same per-vertex seed, unaffected ones
				// were untouched and their walk distributions are unchanged
				// by construction.
				if !slices.Equal(fresh.gamma, eng.gamma) {
					t.Fatal("incremental γ table differs from a fresh build's")
				}
				for v := 0; v < fresh.g.N(); v++ {
					if a, b := fresh.idx.rightRow(uint32(v)), eng.idx.rightRow(uint32(v)); !slices.Equal(a, b) {
						t.Fatalf("index entry %d: incremental %v vs fresh %v", v, b, a)
					}
				}
			})
		}
	}
}

func TestDynamicLargeBatchFallsBackToRebuild(t *testing.T) {
	g := graph.CopyingModel(200, 4, 0.3, 2)
	d := NewDynamicFrom(g, dynParams())
	if err := d.Refresh(); err != nil {
		t.Fatal(err)
	}
	// Touch in-lists of half the vertices: affected set exceeds n/2.
	for v := uint32(0); v < 100; v++ {
		d.AddEdge(199, v)
	}
	if err := d.Refresh(); err != nil {
		t.Fatal(err)
	}
	_, full := d.Refreshes()
	if full != 2 {
		t.Fatalf("expected full rebuild, got full=%d", full)
	}
}

func TestDynamicErrors(t *testing.T) {
	d := NewDynamic(3, dynParams())
	if err := d.AddEdge(0, 3); err == nil {
		t.Fatal("expected range error")
	}
	if err := d.AddEdge(1, 1); err == nil {
		t.Fatal("expected self-loop error")
	}
	if err := d.RemoveEdge(5, 0); err == nil {
		t.Fatal("expected range error")
	}
	// Idempotent operations.
	if err := d.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if d.M() != 1 {
		t.Fatal("duplicate add changed edge count")
	}
	if err := d.RemoveEdge(1, 2); err != nil {
		t.Fatal(err) // removing a missing edge is a no-op
	}
}

func TestDynamicPendingAccounting(t *testing.T) {
	d := NewDynamic(5, dynParams())
	d.AddEdge(0, 1)
	d.AddEdge(2, 1)
	d.AddEdge(0, 3)
	if got := d.Pending(); got != 2 { // targets 1 and 3
		t.Fatalf("pending = %d, want 2", got)
	}
	if err := d.Refresh(); err != nil {
		t.Fatal(err)
	}
	if d.Pending() != 0 {
		t.Fatal("pending not cleared")
	}
}

func TestMarkOutReachable(t *testing.T) {
	g := graph.Path(5) // 0->1->2->3->4
	set := map[uint32]struct{}{}
	markOutReachable(g, 1, 2, set)
	want := []uint32{1, 2, 3}
	if len(set) != len(want) {
		t.Fatalf("set = %v", set)
	}
	for _, v := range want {
		if _, ok := set[v]; !ok {
			t.Fatalf("missing %d in %v", v, set)
		}
	}
}
