package core

import (
	"context"
	"sync"
	"sync/atomic"
)

// AllTopK runs the top-k similarity search for every vertex, in parallel
// over Params.Workers, and returns one result slice per vertex. This is
// the "top-k for all" mode of Table 1; space is O(m + k·n).
//
// The per-vertex searches are independent (the paper notes the algorithm
// is distributed-computing friendly); parallel efficiency is near-linear.
func (e *Snapshot) AllTopK(k int) [][]Scored {
	out, _ := e.AllTopKCtx(context.Background(), k)
	return out
}

// AllTopKCtx is AllTopK with cancellation: workers stop picking up new
// vertices once ctx is cancelled and the call returns ctx.Err(). The
// partially-filled result is discarded.
func (e *Snapshot) AllTopKCtx(ctx context.Context, k int) ([][]Scored, error) {
	out := make([][]Scored, e.g.N())
	err := e.forEachVertexParallel(ctx, func(u uint32) {
		res, _, _ := e.search(ctx, u, k, e.p.Theta, 1)
		out[u] = res
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// forEachVertexParallel runs fn for every vertex through the shared
// atomic-cursor pool of forEachIndexParallel.
func (e *Snapshot) forEachVertexParallel(ctx context.Context, fn func(u uint32)) error {
	return e.forEachIndexParallel(ctx, e.g.N(), func(i int) { fn(uint32(i)) })
}

// forEachIndexParallel runs fn for every index in [0, n) using a shared
// atomic cursor, which balances skewed per-item costs better than
// striding. At most Params.Workers goroutines run; cancellation is
// observed between items: a worker that sees a cancelled ctx stops
// claiming new indices, and the call reports ctx.Err() after every
// worker has drained. This is the one work-item fan-out of the query
// side — AllTopK, SimilarityJoin, and TopKBatch all route through it.
func (e *Snapshot) forEachIndexParallel(ctx context.Context, n int, fn func(i int)) error {
	workers := e.p.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		// A cancellation during the last item must still be reported:
		// fn may have cut that item short.
		return ctx.Err()
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := cursor.Add(1) - 1
				if i >= int64(n) {
					return
				}
				fn(int(i))
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
