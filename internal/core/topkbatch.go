package core

import "context"

// TopKBatch answers a slice of top-k queries, fanning them over
// Params.Workers whole-query workers (a query runs on one goroutine).
// All queries share the snapshot's caches, so a batch with recurring
// queries warms them for itself. Results are byte-identical to issuing
// the queries one at a
// time, and so are the per-query statistics except the cache counters:
// when two concurrent queries race on the same cold entry, which of
// them records the miss depends on scheduling (the entry they compute is
// identical either way).
func (e *Snapshot) TopKBatch(us []uint32, k int) ([][]Scored, []QueryStats) {
	res, sts, _ := e.TopKBatchCtx(context.Background(), us, k)
	return res, sts
}

// TopKBatchCtx is TopKBatch with cancellation, observed between queries
// and between each query's candidate-scoring blocks. On cancellation the
// partial results are discarded and ctx.Err() is returned.
func (e *Snapshot) TopKBatchCtx(ctx context.Context, us []uint32, k int) ([][]Scored, []QueryStats, error) {
	res := make([][]Scored, len(us))
	sts := make([]QueryStats, len(us))
	err := e.forEachIndexParallel(ctx, len(us), func(i int) {
		r, st, err := e.search(ctx, us[i], k, e.p.Theta)
		if err != nil {
			return // the pool sees the cancelled ctx and reports it
		}
		res[i] = r
		sts[i] = st
	})
	if err != nil {
		return nil, nil, err
	}
	return res, sts, nil
}
