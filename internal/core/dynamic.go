package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// DynamicEngine maintains a similarity-search engine over a mutable edge
// set. Edge insertions and deletions are buffered; a refresh runs the full
// preprocess on the current edge set and publishes the result as an
// immutable Snapshot through an atomic pointer.
//
// Concurrency model:
//
//   - Queries load the current snapshot with a single atomic read and run
//     entirely against that immutable state — they never take d.mu, so
//     they cannot stall behind an in-progress refresh. A query issued
//     during a rebuild serves the previous snapshot.
//   - AddEdge/RemoveEdge buffer the change under d.mu and mark the engine
//     stale; they never build anything. The next query notices the staleness
//     and kicks the single background refresher (non-blocking), which builds
//     the next snapshot off-lock and swaps it in.
//   - Refresh applies buffered updates synchronously: after it returns,
//     queries observe the updates (read-your-writes on demand). Concurrent
//     builds are serialized by refreshMu, so at most one preprocess runs
//     at a time regardless of how the refresh was triggered.
//
// Every refresh is a full rebuild, so a refreshed snapshot is the one
// Build makes from the same edge set, and its caches start cold. An edge
// update (a, b) changes the walks of every vertex that reaches b within T
// steps along out-edges; on the benchmark's social graph that is 99.6 % of
// the vertices for one edge, and on its web graph, where it is 1–4 %,
// re-indexing only those vertices took half the time of a rebuild
// (DESIGN.md §8 has the measurements).
type DynamicEngine struct {
	p Params
	n int

	// mu guards the edge set, the dirty set, and the refresh counter.
	// It is never held while building a snapshot.
	mu    sync.Mutex
	edges map[uint64]struct{}
	// dirty holds edge targets whose in-lists changed since the last
	// refresh.
	dirty map[uint32]struct{}
	// rebuilds counts refreshes, for tests and diagnostics.
	rebuilds int

	// snap is the published immutable query state; nil until the first
	// refresh materializes it.
	snap atomic.Pointer[Snapshot]
	// pending mirrors len(dirty) != 0 so the query fast path can detect
	// staleness without taking mu.
	pending atomic.Bool

	// refreshMu serializes snapshot builds: the read-edges → build →
	// publish sequence must not interleave, or a slow build could
	// overwrite a newer snapshot.
	refreshMu sync.Mutex

	// kick wakes the background refresher; done stops it.
	kick      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// NewDynamic returns a dynamic engine with n vertices and no edges. Call
// Close when done to stop the background refresher.
func NewDynamic(n int, p Params) *DynamicEngine {
	d := &DynamicEngine{
		p:     p.normalized(),
		n:     n,
		edges: make(map[uint64]struct{}),
		dirty: make(map[uint32]struct{}),
		kick:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	d.startRefresher()
	return d
}

// NewDynamicFrom seeds the dynamic engine with an existing graph.
func NewDynamicFrom(g *graph.Graph, p Params) *DynamicEngine {
	d := NewDynamic(g.N(), p)
	g.Edges(func(u, v uint32) bool {
		d.edges[edgeKey(u, v)] = struct{}{}
		return true
	})
	return d
}

func edgeKey(u, v uint32) uint64 { return uint64(u)<<32 | uint64(v) }

// startRefresher launches the single background worker that rebuilds
// snapshots when queries observe buffered updates. It is the only place
// in the engine that spawns a long-lived goroutine.
func (d *DynamicEngine) startRefresher() {
	go d.refreshLoop()
}

func (d *DynamicEngine) refreshLoop() {
	for {
		select {
		case <-d.done:
			return
		case <-d.kick:
			d.refreshNow()
		}
	}
}

// kickRefresh nudges the background refresher without blocking; a kick
// that finds one already queued is dropped (the refresher drains the
// whole dirty set per pass, so one queued kick suffices).
func (d *DynamicEngine) kickRefresh() {
	select {
	case d.kick <- struct{}{}:
	default:
	}
}

// Close stops the background refresher. Queries against the last
// published snapshot remain valid; further updates are still buffered but
// only refreshed synchronously (via Refresh or a first query).
func (d *DynamicEngine) Close() {
	d.closeOnce.Do(func() { close(d.done) })
}

// N returns the vertex count.
func (d *DynamicEngine) N() int { return d.n }

// M returns the current edge count (including buffered updates).
func (d *DynamicEngine) M() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.edges)
}

// AddEdge inserts the directed edge (u, v). Self-loops are rejected, as
// in the static builder. Inserting an existing edge is a no-op.
// The update is buffered: queries keep serving the current snapshot until
// a refresh (background or explicit) absorbs the change.
func (d *DynamicEngine) AddEdge(u, v uint32) error {
	if int(u) >= d.n || int(v) >= d.n {
		return fmt.Errorf("core: edge (%d,%d) out of range for n=%d", u, v, d.n)
	}
	if u == v {
		return fmt.Errorf("core: self-loop (%d,%d) not allowed", u, v)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	k := edgeKey(u, v)
	if _, ok := d.edges[k]; ok {
		return nil
	}
	d.edges[k] = struct{}{}
	d.dirty[v] = struct{}{}
	d.pending.Store(true)
	return nil
}

// RemoveEdge deletes the directed edge (u, v). Removing a missing edge is
// a no-op. Like AddEdge, the update is buffered.
func (d *DynamicEngine) RemoveEdge(u, v uint32) error {
	if int(u) >= d.n || int(v) >= d.n {
		return fmt.Errorf("core: edge (%d,%d) out of range for n=%d", u, v, d.n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	k := edgeKey(u, v)
	if _, ok := d.edges[k]; !ok {
		return nil
	}
	delete(d.edges, k)
	d.dirty[v] = struct{}{}
	d.pending.Store(true)
	return nil
}

// Pending reports the number of vertices with buffered in-list changes.
func (d *DynamicEngine) Pending() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.dirty)
}

// Refreshes reports how many refreshes have built a snapshot.
func (d *DynamicEngine) Refreshes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rebuilds
}

// TopK answers a top-k query against the current snapshot.
func (d *DynamicEngine) TopK(u uint32, k int) ([]Scored, error) {
	return d.TopKCtx(context.Background(), u, k)
}

// TopKCtx is TopK with cancellation, checked between candidate-scoring
// blocks (see Snapshot.TopKCtx).
func (d *DynamicEngine) TopKCtx(ctx context.Context, u uint32, k int) ([]Scored, error) {
	s, err := d.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	return s.TopKCtx(ctx, u, k)
}

// TopKBatchCtx answers a slice of top-k queries against one consistent
// snapshot (every query in the batch sees the same graph state), sharing
// its row cache across the batch.
func (d *DynamicEngine) TopKBatchCtx(ctx context.Context, us []uint32, k int) ([][]Scored, []QueryStats, error) {
	s, err := d.snapshot(ctx)
	if err != nil {
		return nil, nil, err
	}
	return s.TopKBatchCtx(ctx, us, k)
}

// CacheStats reports the current snapshot's row-cache counters (zero
// when no snapshot is published yet or the cache is disabled). A refresh
// publishes a snapshot with empty caches, so counters and contents start
// over.
func (d *DynamicEngine) CacheStats() CacheStats {
	if s := d.snap.Load(); s != nil {
		return s.CacheStats()
	}
	return CacheStats{}
}

// SinglePair estimates s⁽ᵀ⁾(u, v) against the current snapshot.
func (d *DynamicEngine) SinglePair(u, v uint32) (float64, error) {
	return d.SinglePairCtx(context.Background(), u, v)
}

// SinglePairCtx is SinglePair with cancellation.
func (d *DynamicEngine) SinglePairCtx(ctx context.Context, u, v uint32) (float64, error) {
	s, err := d.snapshot(ctx)
	if err != nil {
		return 0, err
	}
	return s.SinglePairCtx(ctx, u, v)
}

// Snapshot returns the current immutable query state, materializing it
// synchronously if no snapshot exists yet. The returned snapshot is
// internally consistent (graph and candidate index from one refresh) and
// stays valid — though possibly stale — forever.
func (d *DynamicEngine) Snapshot() (*Snapshot, error) {
	return d.snapshot(context.Background())
}

// snapshot is the query fast path: one atomic load in steady state. If
// updates are pending it kicks the background refresher and still returns
// the current (stale) snapshot — queries never wait for a build. Only the
// very first query, with no snapshot published yet, builds synchronously.
func (d *DynamicEngine) snapshot(ctx context.Context) (*Snapshot, error) {
	if s := d.snap.Load(); s != nil {
		if d.pending.Load() {
			d.kickRefresh()
		}
		return s, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d.refreshNow()
	return d.snap.Load(), nil
}

// Refresh applies buffered updates immediately instead of eventually:
// after it returns, queries observe every update buffered before the
// call.
func (d *DynamicEngine) Refresh() error {
	d.refreshNow()
	return nil
}

// refreshNow builds and publishes a snapshot absorbing all updates
// buffered at the time it starts. refreshMu makes the read → build →
// publish sequence atomic with respect to other refreshes; d.mu is held
// only long enough to copy the edge set and clear the dirty set, so
// updates keep flowing while the build runs.
func (d *DynamicEngine) refreshNow() {
	d.refreshMu.Lock()
	defer d.refreshMu.Unlock()

	d.mu.Lock()
	if d.snap.Load() != nil && len(d.dirty) == 0 {
		d.mu.Unlock()
		return
	}
	g := d.buildGraphLocked()
	d.dirty = make(map[uint32]struct{})
	d.pending.Store(false)
	d.mu.Unlock()

	d.snap.Store(Build(g, d.p).Seal())

	d.mu.Lock()
	d.rebuilds++
	d.mu.Unlock()
}

// buildGraphLocked materializes the current edge set as a CSR graph.
func (d *DynamicEngine) buildGraphLocked() *graph.Graph {
	b := graph.NewBuilder(d.n)
	for k := range d.edges {
		b.AddEdge(uint32(k>>32), uint32(k&0xffffffff))
	}
	return b.Build()
}
