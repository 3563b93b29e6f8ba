package simrank

import (
	"context"
	"io"

	"repro/internal/core"
)

// SaveIndex writes the index's preprocess result (the candidate index) so
// a later session can skip the preprocess with LoadIndex.
func (ix *Index) SaveIndex(w io.Writer) error {
	return ix.e.SaveIndex(w)
}

// LoadIndex restores preprocess results saved by SaveIndex over the same
// graph with compatible options (equal T and decay factor; mismatches are
// rejected).
func LoadIndex(g *Graph, opts Options, r io.Reader) (*Index, error) {
	e, err := core.LoadIndex(g.g, opts.toParams(), r)
	if err != nil {
		return nil, err
	}
	return &Index{g: g, e: e.Seal()}, nil
}

// LoadIndexMmap memory-maps a version-3 index file and serves queries
// directly from the mapping with zero payload copies: the graph is
// reconstructed from the CSR sections embedded in the file, so no
// separate edge list is needed and cold start is independent of index
// size. The returned closer unmaps the file; it must not be called
// while queries are in flight. Off unix there is no mapping: the file
// is read whole and every section verified, as LoadIndex does, and the
// closer releases nothing.
func LoadIndexMmap(path string, opts Options) (*Index, func() error, error) {
	e, closer, err := core.LoadIndexMmap(path, opts.toParams())
	if err != nil {
		return nil, nil, err
	}
	return &Index{g: &Graph{g: e.Graph()}, e: e.Seal()}, closer, nil
}

// DynamicIndex is a similarity-search index over a mutable edge set.
// Queries are served lock-free from an immutable published snapshot, so
// any number of goroutines may query and update concurrently without
// stalling each other.
//
// Consistency contract: AddEdge/RemoveEdge buffer the change and return
// immediately; queries keep answering from the current snapshot until a
// refresh absorbs the updates. A query that notices buffered updates
// nudges a single background worker, which reruns the preprocess on the
// current edge set off the query path and atomically publishes the new
// snapshot — eventual consistency by default. Call Refresh to apply
// buffered updates synchronously when read-your-writes is required.
// Every refresh is a full rebuild, so a refreshed index answers exactly
// as BuildIndex over the same edges and options does.
type DynamicIndex struct {
	d *core.DynamicEngine
}

// NewDynamicIndex returns an empty dynamic index over n vertices.
func NewDynamicIndex(n int, opts Options) *DynamicIndex {
	return &DynamicIndex{d: core.NewDynamic(n, opts.toParams())}
}

// NewDynamicIndexFrom seeds the dynamic index with an existing graph.
func NewDynamicIndexFrom(g *Graph, opts Options) *DynamicIndex {
	return &DynamicIndex{d: core.NewDynamicFrom(g.g, opts.toParams())}
}

// AddEdge inserts the directed edge (u, v).
func (dx *DynamicIndex) AddEdge(u, v int) error {
	return dx.d.AddEdge(uint32(u), uint32(v))
}

// RemoveEdge deletes the directed edge (u, v).
func (dx *DynamicIndex) RemoveEdge(u, v int) error {
	return dx.d.RemoveEdge(uint32(u), uint32(v))
}

// NumVertices returns the vertex count.
func (dx *DynamicIndex) NumVertices() int { return dx.d.N() }

// NumEdges returns the current edge count, including buffered updates.
func (dx *DynamicIndex) NumEdges() int { return dx.d.M() }

// PendingUpdates reports how many vertices have unapplied in-link
// changes.
func (dx *DynamicIndex) PendingUpdates() int { return dx.d.Pending() }

// Refresh applies buffered updates synchronously: once it returns,
// queries observe every update buffered before the call.
func (dx *DynamicIndex) Refresh() error { return dx.d.Refresh() }

// Close stops the background refresh worker. The index remains queryable
// (serving the last published snapshot, refreshing synchronously on
// demand); Close only releases the goroutine.
func (dx *DynamicIndex) Close() { dx.d.Close() }

// TopK returns the k vertices most similar to u from the current
// snapshot (see the consistency contract on DynamicIndex).
func (dx *DynamicIndex) TopK(u, k int) ([]Result, error) {
	return dx.TopKCtx(context.Background(), u, k)
}

// TopKCtx is TopK with cancellation, checked between candidate-scoring
// blocks.
func (dx *DynamicIndex) TopKCtx(ctx context.Context, u, k int) ([]Result, error) {
	if u < 0 || u >= dx.d.N() {
		return nil, errVertexRange(u, dx.d.N())
	}
	res, err := dx.d.TopKCtx(ctx, uint32(u), k)
	if err != nil {
		return nil, err
	}
	return toResults(res), nil
}

// TopKBatchCtx answers a slice of top-k queries against one consistent
// snapshot: every query in the batch observes the same graph state, and
// all of them share that snapshot's tally cache.
func (dx *DynamicIndex) TopKBatchCtx(ctx context.Context, us []int, k int) ([][]Result, error) {
	qs := make([]uint32, len(us))
	for i, u := range us {
		if u < 0 || u >= dx.d.N() {
			return nil, errVertexRange(u, dx.d.N())
		}
		qs[i] = uint32(u)
	}
	res, _, err := dx.d.TopKBatchCtx(ctx, qs, k)
	if err != nil {
		return nil, err
	}
	out := make([][]Result, len(res))
	for i, r := range res {
		out[i] = toResults(r)
	}
	return out, nil
}

// CacheStats reports the current snapshot's tally-cache counters (zero
// when the cache is disabled or no snapshot exists yet). Each refresh
// publishes a snapshot with an empty cache, so counters and entries start
// over.
func (dx *DynamicIndex) CacheStats() CacheStats { return dx.d.CacheStats() }

// SinglePair estimates the SimRank score between u and v from the
// current snapshot (see the consistency contract on DynamicIndex).
func (dx *DynamicIndex) SinglePair(u, v int) (float64, error) {
	return dx.SinglePairCtx(context.Background(), u, v)
}

// SinglePairCtx is SinglePair with cancellation, checked on entry.
func (dx *DynamicIndex) SinglePairCtx(ctx context.Context, u, v int) (float64, error) {
	n := dx.d.N()
	if u < 0 || u >= n {
		return 0, errVertexRange(u, n)
	}
	if v < 0 || v >= n {
		return 0, errVertexRange(v, n)
	}
	if u == v {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return 1, nil
	}
	return dx.d.SinglePairCtx(ctx, uint32(u), uint32(v))
}
