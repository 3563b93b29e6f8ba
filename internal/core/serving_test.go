package core

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// TestTopKDuringRefreshNoStall hammers TopK from several goroutines while
// an updater forces full rebuilds, and asserts queries never stall behind
// a build: the published snapshot is served lock-free, so query latency
// during rebuilds must stay within a small factor of idle latency (a
// query that blocked on the build would measure the whole preprocess).
// Run with -race this also exercises the publication protocol.
func TestTopKDuringRefreshNoStall(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const n = 2000
	g := graph.CopyingModel(n, 6, 0.3, 11)
	p := DefaultParams()
	p.Seed = 11
	p.Workers = 2
	d := NewDynamicFrom(g, p)
	defer d.Close()
	if err := d.Refresh(); err != nil { // initial full build
		t.Fatal(err)
	}

	query := func(i int) time.Duration {
		u := uint32((i*7919 + 13) % n)
		start := time.Now()
		if _, err := d.TopK(u, 10); err != nil {
			t.Error(err)
		}
		return time.Since(start)
	}
	p99 := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[len(ds)*99/100]
	}

	// Idle baseline.
	idle := make([]time.Duration, 200)
	for i := range idle {
		idle[i] = query(i)
	}
	p99Idle := p99(idle)

	// Updater: each cycle adds one edge and removes it again, and every
	// refresh is a full rebuild.
	fullBefore := d.Refreshes()
	var stop atomic.Bool
	var rebuilt atomic.Int64 // full rebuilds completed since fullBefore
	var updaterDone sync.WaitGroup
	updaterDone.Add(1)
	go func() {
		defer updaterDone.Done()
		refresh := func() bool {
			if err := d.Refresh(); err != nil {
				t.Error(err)
				return false
			}
			rebuilt.Store(int64(d.Refreshes() - fullBefore))
			return true
		}
		for !stop.Load() {
			d.AddEdge(n-1, 7)
			if !refresh() {
				return
			}
			d.RemoveEdge(n-1, 7)
			if !refresh() {
				return
			}
		}
	}()

	// Each querier issues at least minPerQuerier queries and keeps going
	// until two full rebuilds have completed underneath it, so the overlap
	// does not depend on queries being slower than builds. The deadline
	// only bounds a wedged updater; the rebuild assertion below reports it.
	const queriers, minPerQuerier = 3, 100
	deadline := time.Now().Add(time.Minute)
	during := make([][]time.Duration, queriers)
	var wg sync.WaitGroup
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			var ds []time.Duration
			for i := 0; i < minPerQuerier || rebuilt.Load() < 2; i++ {
				if time.Now().After(deadline) {
					break
				}
				ds = append(ds, query(i*queriers+q))
			}
			during[q] = ds
		}(q)
	}
	wg.Wait()
	stop.Store(true)
	updaterDone.Wait()

	fullAfter := d.Refreshes()
	if fullAfter < fullBefore+2 {
		t.Fatalf("updater forced only %d full rebuilds; hammering did not overlap builds", fullAfter-fullBefore)
	}

	var all []time.Duration
	for _, ds := range during {
		all = append(all, ds...)
	}
	p99During := p99(all)
	// 5x idle p99 is the acceptance bound; the absolute floor absorbs
	// scheduler noise on very fast idle baselines.
	limit := 5 * p99Idle
	if floor := 10 * time.Millisecond; limit < floor {
		limit = floor
	}
	if runtime.GOMAXPROCS(0) < 4 {
		// With too few CPUs the rebuilds and the queries time-share cores,
		// so latency reflects CPU starvation, not lock contention — the
		// hammer above still exercised the publication protocol (and the
		// race detector, when enabled). Only the latency bound is skipped.
		t.Logf("GOMAXPROCS=%d: skipping latency bound (idle p99 %v, during p99 %v)",
			runtime.GOMAXPROCS(0), p99Idle, p99During)
		return
	}
	if p99During > limit {
		t.Fatalf("p99 during rebuilds %v exceeds limit %v (idle p99 %v)", p99During, limit, p99Idle)
	}
}

// TestSnapshotImmutableUnderUpdates verifies a snapshot captured before a
// batch of updates keeps answering from its own consistent state: the
// same query against the same snapshot is byte-identical before and after
// the engine refreshes past it.
func TestSnapshotImmutableUnderUpdates(t *testing.T) {
	g := graph.CopyingModel(400, 4, 0.3, 9)
	p := DefaultParams()
	p.Seed = 9
	p.Workers = 2
	d := NewDynamicFrom(g, p)
	defer d.Close()
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Sealed() {
		t.Fatal("published snapshot is not sealed")
	}
	before := snap.TopK(7, 10)

	d.AddEdge(17, 23)
	d.AddEdge(301, 55)
	if err := d.Refresh(); err != nil {
		t.Fatal(err)
	}
	after, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if after == snap {
		t.Fatal("refresh did not publish a new snapshot")
	}

	again := snap.TopK(7, 10)
	if len(again) != len(before) {
		t.Fatalf("stale snapshot changed its answer: %v vs %v", again, before)
	}
	for i := range before {
		if again[i] != before[i] {
			t.Fatalf("stale snapshot changed its answer at %d: %v vs %v", i, again[i], before[i])
		}
	}
}

// cancelAfter is a context whose Err() flips to Canceled after a fixed
// number of checks. The search path checks ctx once on entry and once per
// candidate-scoring block, so this cancels at an exact, deterministic
// point mid-query — no timing races.
type cancelAfter struct {
	context.Context
	calls atomic.Int64
	after int64
}

func newCancelAfter(n int64) *cancelAfter {
	return &cancelAfter{Context: context.Background(), after: n}
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestQueryCancellation checks that a context cancelled mid-query makes
// the search return ctx.Err() promptly and release every scratch buffer
// back to the pool.
func TestQueryCancellation(t *testing.T) {
	g := graph.CopyingModel(2000, 8, 0.3, 3)
	p := DefaultParams()
	p.Seed = 3
	p.Workers = 4
	p.Strategy = CandidatesHybrid // hub vertices see ball-sized candidate sets
	e := Build(g, p)

	// Find a query vertex with enough candidates for several scoring
	// blocks, so per-block cancellation points exist.
	var u uint32
	found := false
	for v := uint32(0); v < 200; v++ {
		if _, st := e.TopKStats(v, 10); st.Candidates > 4*scoreBlock {
			u, found = v, true
			break
		}
	}
	if !found {
		t.Fatal("no query vertex with multiple scoring blocks")
	}

	// Pre-cancelled context: rejected on entry, before any scratch is
	// acquired.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g0, p0 := e.PoolBalance()
	if _, err := e.TopKCtx(ctx, u, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled TopKCtx err = %v, want context.Canceled", err)
	}
	g1, p1 := e.PoolBalance()
	if g1 != g0 || p1 != p0 {
		t.Fatalf("pre-cancelled query touched the pool: gets %d->%d puts %d->%d", g0, g1, p0, p1)
	}
	if _, err := e.AllTopKCtx(ctx, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled AllTopKCtx err = %v, want context.Canceled", err)
	}
	if _, err := e.SinglePairCtx(ctx, u, u+1); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled SinglePairCtx err = %v, want context.Canceled", err)
	}
	if _, err := e.SimilarityJoinCtx(ctx, 0.2, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled SimilarityJoinCtx err = %v, want context.Canceled", err)
	}

	// Cancel after the first scoring block: the entry check and the first
	// block check pass, the first block is scored (in parallel, exercising
	// worker scratch round trips), and the second block check observes the
	// cancellation. Threshold at 0 scores every candidate, so the block
	// loop is guaranteed to reach a second iteration.
	for _, checks := range []int64{1, 2, 3} {
		ctx := newCancelAfter(checks)
		g0, p0 := e.PoolBalance()
		_, err := e.ThresholdCtx(ctx, u, 0)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("after=%d: err = %v, want context.Canceled", checks, err)
		}
		g1, p1 := e.PoolBalance()
		if g1-g0 != p1-p0 {
			t.Fatalf("after=%d: scratch leak: %d gets vs %d puts", checks, g1-g0, p1-p0)
		}
	}

	// An uncancelled *Ctx query matches the plain API byte for byte.
	want, wantStats := e.TopKStats(u, 10)
	got, gotStats, err := e.TopKStatsCtx(context.Background(), u, 10)
	if err != nil {
		t.Fatal(err)
	}
	if wantStats != gotStats {
		t.Fatalf("stats diverge: %+v vs %+v", wantStats, gotStats)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("results diverge at %d: %v vs %v", i, want[i], got[i])
		}
	}
}

// TestDynamicQueryCancellation checks cancellation through the dynamic
// engine's query path.
func TestDynamicQueryCancellation(t *testing.T) {
	g := graph.CopyingModel(300, 4, 0.3, 5)
	p := DefaultParams()
	p.Seed = 5
	d := NewDynamicFrom(g, p)
	defer d.Close()
	if err := d.Refresh(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.TopKCtx(ctx, 1, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("TopKCtx err = %v, want context.Canceled", err)
	}
	if _, err := d.SinglePairCtx(ctx, 1, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("SinglePairCtx err = %v, want context.Canceled", err)
	}
	// With no snapshot yet, a cancelled context refuses to build one.
	d2 := NewDynamic(10, p)
	defer d2.Close()
	d2.AddEdge(1, 2)
	if _, err := d2.TopKCtx(ctx, 1, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("unbuilt TopKCtx err = %v, want context.Canceled", err)
	}
}
