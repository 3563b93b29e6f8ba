package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
)

// scanStats strips the cache counters, which are topology-dependent (a
// shard refines a superset of what the single-node scan refines, and
// each shard has its own cache). Everything else must replay exactly.
func scanStats(s QueryStats) QueryStats {
	s.CacheHits, s.CacheMisses, s.CacheEvictions = 0, 0, 0
	return s
}

// sortShardCands puts a hand-assembled fragment into the order
// ShardScanCtx produces and MergeShardTopKScratch requires.
func sortShardCands(cs []ShardCand) {
	slices.SortFunc(cs, func(a, b ShardCand) int {
		if shardCandBefore(a, b) {
			return -1
		}
		if shardCandBefore(b, a) {
			return 1
		}
		return 0
	})
}

// shardFrags scans the candidates of u at floor theta on every range of
// part, one fragment per range, with the per-shard stats.
func shardFrags(t testing.TB, e *Snapshot, u uint32, theta float64, part [][2]uint32) ([][]ShardCand, []QueryStats) {
	t.Helper()
	frags := make([][]ShardCand, len(part))
	sts := make([]QueryStats, len(part))
	for si, r := range part {
		var err error
		frags[si], sts[si], err = e.ShardScanCtx(context.Background(), u, theta, r[0], r[1], nil)
		if err != nil {
			t.Fatalf("u=%d shard=%d: %v", u, si, err)
		}
	}
	return frags, sts
}

// sameAnswer fails unless a merge replayed the single-node answer: the
// same results in the same order and the same scan counters.
func sameAnswer(t testing.TB, label string, res []Scored, stats QueryStats, want []Scored, wantStats QueryStats) {
	t.Helper()
	if stats != scanStats(wantStats) {
		t.Fatalf("%s: stats %+v, want %+v", label, stats, scanStats(wantStats))
	}
	if !slices.Equal(res, want) {
		t.Fatalf("%s: results %v, want %v", label, res, want)
	}
}

// shardConfigs are the parameter corners the replay proof has to cover:
// every scoring path (adaptive sampled, cached, exact, non-adaptive)
// plus a non-default candidate strategy.
func shardConfigs() map[string]Params {
	base := DefaultParams()
	base.Seed = 17
	cached := base
	cached.CacheBytes = 1 << 20
	exact := base
	exact.ExactScoring = true
	noadapt := base
	noadapt.DisableAdaptive = true
	hybrid := base
	hybrid.Strategy = CandidatesHybrid
	return map[string]Params{
		"base":    base,
		"cached":  cached,
		"exact":   exact,
		"noadapt": noadapt,
		"hybrid":  hybrid,
	}
}

// partitions returns contiguous range partitions of [0, n): the trivial
// one, even splits, and a deliberately skewed split.
func partitions(n uint32) [][][2]uint32 {
	even := func(s uint32) [][2]uint32 {
		var rs [][2]uint32
		for i := uint32(0); i < s; i++ {
			rs = append(rs, [2]uint32{i * n / s, (i + 1) * n / s})
		}
		return rs
	}
	return [][][2]uint32{
		even(1),
		even(2),
		even(3),
		even(5),
		{{0, 1}, {1, n / 10}, {n / 10, n}}, // skewed: tiny, small, huge
	}
}

// TestMergeShardTopKMatchesSearch is the core byte-identity property:
// for every parameter corner, every partition, and several k (including
// k larger than the candidate count), merging the per-shard fragments
// must reproduce the single-node results AND scan statistics exactly.
func TestMergeShardTopKMatchesSearch(t *testing.T) {
	g := graph.CopyingModel(2000, 5, 0.3, 21)
	n := uint32(g.N())
	queries := []uint32{0, 16, 17, 999, 1999}
	for name, p := range shardConfigs() {
		t.Run(name, func(t *testing.T) {
			e := Build(g, p)
			requireBothKinds(t, name, e.Snapshot, queries)
			requireAllClasses(t, name, e.Snapshot, queries)
			for _, u := range queries {
				for _, k := range []int{1, 20, 100000} {
					wantRes, wantStats := e.TopKStats(u, k)
					for pi, part := range partitions(n) {
						frags, _ := shardFrags(t, e.Snapshot, u, e.p.Theta, part)
						res, stats := MergeShardTopKScratch(k, e.p.Theta, frags, nil)
						sameAnswer(t, fmt.Sprintf("u=%d k=%d part=%d", u, k, pi), res, stats, wantRes, wantStats)
					}
				}
			}
		})
	}
}

// TestShardScanCacheCountersSum checks the documented aggregation rule
// for the one non-replayed stat family: per-shard candidate counts
// always sum to the single-node count, and with the cache off each
// shard's counters are zero.
func TestShardScanCacheCountersSum(t *testing.T) {
	g := graph.Collaboration(800, 5, 0.8, 40, 7)
	p := DefaultParams()
	p.Seed = 4
	e := Build(g, p)
	n := uint32(g.N())
	for _, u := range []uint32{3, 400, 799} {
		_, want := e.TopKStats(u, 20)
		var cands int
		_, sts := shardFrags(t, e.Snapshot, u, e.p.Theta, [][2]uint32{{0, n / 3}, {n / 3, n / 2}, {n / 2, n}})
		for _, st := range sts {
			cands += st.Candidates
			if st.CacheHits != 0 || st.CacheMisses != 0 || st.CacheEvictions != 0 {
				t.Fatalf("u=%d: cache counters nonzero with cache disabled: %+v", u, st)
			}
		}
		if cands != want.Candidates {
			t.Fatalf("u=%d: shard candidates sum %d, want %d", u, cands, want.Candidates)
		}
	}
}

// TestThresholdShardMergeMatchesSearch: a threshold query is the same
// exchange at its own floor — fragments scanned at theta and merged with
// k = 0 at theta reproduce search(u, k = 0, theta) exactly, results and
// scan counters, for thetas below, at and above the serving one. At a
// fixed floor every pruning decision is local to the candidate, so the
// per-shard scan counters also sum to the single-node ones.
func TestThresholdShardMergeMatchesSearch(t *testing.T) {
	g := graph.Collaboration(800, 5, 0.8, 40, 7)
	p := DefaultParams()
	p.Seed = 4
	e := Build(g, p)
	n := uint32(g.N())
	ctx := context.Background()
	// Three hubs of the communities, a leaf whose push is exact, a vertex
	// without candidates, and one whose push dies out before its horizon.
	us := []uint32{3, 400, 799, 1019, 46, 467}
	requireBothKinds(t, "threshold shards", e.Snapshot, us)
	requireAllClasses(t, "threshold shards", e.Snapshot, us)
	for _, theta := range []float64{0.005, p.Theta, 0.05, 0.3} {
		for _, u := range us {
			want, wantStats, err := e.search(ctx, u, 0, theta, e.p.Workers)
			if err != nil {
				t.Fatal(err)
			}
			for pi, part := range partitions(n) {
				label := fmt.Sprintf("theta=%g u=%d part=%d", theta, u, pi)
				frags, sts := shardFrags(t, e.Snapshot, u, theta, part)
				var sum QueryStats
				for _, st := range sts {
					sum.Candidates += st.Candidates
					sum.PrunedByBound += st.PrunedByBound
					sum.PrunedByRough += st.PrunedByRough
					sum.Refined += st.Refined
				}
				if sum != scanStats(wantStats) {
					t.Fatalf("%s: stats sum %+v, want %+v", label, sum, scanStats(wantStats))
				}
				res, stats := MergeShardTopKScratch(0, theta, frags, nil)
				sameAnswer(t, label, res, stats, want, wantStats)
			}
		}
	}
}

// TestTopKShardBatchMatchesSingle: the batch shard entry point must be
// query-wise identical to the single-query scan at the serving theta.
func TestTopKShardBatchMatchesSingle(t *testing.T) {
	g := graph.Collaboration(500, 4, 0.8, 30, 9)
	p := DefaultParams()
	p.Seed = 11
	e := Build(g, p)
	us := []uint32{0, 7, 123, 499, 250, 72, 115, 211}
	requireBothKinds(t, "shard batch", e.Snapshot, us)
	requireAllClasses(t, "shard batch", e.Snapshot, us)
	ctx := context.Background()
	frags := make([][]ShardCand, len(us))
	sts := make([]QueryStats, len(us))
	if err := e.TopKShardBatchAppendCtx(ctx, us, 100, 400, frags, sts); err != nil {
		t.Fatal(err)
	}
	for i, u := range us {
		want, wantSt, err := e.ShardScanCtx(ctx, u, e.p.Theta, 100, 400, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sts[i] != wantSt {
			t.Fatalf("u=%d: stats %+v, want %+v", u, sts[i], wantSt)
		}
		if fmt.Sprint(frags[i]) != fmt.Sprint(want) {
			t.Fatalf("u=%d: batch fragment differs from single", u)
		}
	}
}

// fuzzSnapshot is the small engine FuzzMergeShardTopK scans real
// fragments from, built once per process, with the vertices whose
// threshold query at the fuzz's lowest theta returns something.
var fuzzSnapshot = sync.OnceValues(func() (*Snapshot, []uint32) {
	p := DefaultParams()
	p.Seed = 3
	e := Build(graph.Collaboration(100, 4, 0.8, 20, 5), p).Snapshot
	var us []uint32
	for u := uint32(0); u < uint32(e.g.N()); u++ {
		if len(e.Threshold(u, 1.0/512)) > 0 {
			us = append(us, u)
		}
	}
	return e, us
})

// FuzzMergeShardTopK checks partition invariance of the replay on
// synthetic fragments: merging any contiguous-range split of a
// well-formed candidate list must equal replaying the unsplit list.
// This exercises tie ordering (bounds drawn from a tiny value set),
// every candidate state, and k beyond the candidate count — free of
// engine-build cost. Then, on a small engine, it checks the threshold
// exchange at a θ drawn from the input: the fragments of the same split,
// scanned at θ and merged with k = 0, must equal Threshold(u, θ).
func FuzzMergeShardTopK(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(20), uint8(3))
	f.Add([]byte{0xff, 0, 0xff, 0, 7}, uint8(0), uint8(1))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(2), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, kb, shards uint8) {
		const theta = 0.01
		// Decode a candidate per 2 bytes: vertex id = index (distinct by
		// construction), bound and state from the bytes. A small bound
		// alphabet forces ties; rough/score values straddle the 0.3*floor
		// and theta cutoffs.
		ubs := []float64{0.001, 0.005, 0.01, 0.02, 0.05, 0.2, 1}
		n := len(data) / 2
		if n == 0 {
			return
		}
		cands := make([]ShardCand, n)
		for i := 0; i < n; i++ {
			b0, b1 := data[2*i], data[2*i+1]
			c := ShardCand{V: uint32(i), UB: ubs[int(b0)%len(ubs)]}
			rough := float64(b1%32) / 100 // 0 .. 0.31
			score := float64(b1%64) / 200 // 0 .. 0.315
			if c.UB < theta {
				c.State = ShardUnscored
			} else {
				switch b0 % 3 {
				case 0:
					if rough < 0.3*theta {
						c.State = ShardRoughPruned
						c.Rough = rough
					} else {
						c.State = ShardScored
						c.Rough = rough
						c.Score = score
					}
				case 1:
					c.State = ShardScoredNoRough
					c.Score = score
				default:
					c.State = ShardScored
					// Rough high enough to survive floor theta; the merge
					// may still prune it at a higher adaptive floor.
					c.Rough = 0.3*theta + rough
					c.Score = score
				}
			}
			cands[i] = c
		}
		sortShardCands(cands)
		k := int(kb)

		wantRes, wantStats := MergeShardTopKScratch(k, theta, [][]ShardCand{cands}, nil)

		// Split by vertex-id ranges (candidates own v == their index).
		s := int(shards)%5 + 1
		frags := make([][]ShardCand, s)
		for si := 0; si < s; si++ {
			lo, hi := uint32(si*n/s), uint32((si+1)*n/s)
			var fr []ShardCand
			for _, c := range cands {
				if c.V >= lo && c.V < hi {
					fr = append(fr, c)
				}
			}
			frags[si] = fr
		}
		res, stats := MergeShardTopKScratch(k, theta, frags, nil)
		if stats != wantStats {
			t.Fatalf("stats %+v, want %+v", stats, wantStats)
		}
		if len(res) != len(wantRes) {
			t.Fatalf("%d results, want %d", len(res), len(wantRes))
		}
		for i := range res {
			if res[i] != wantRes[i] {
				t.Fatalf("result %d = %+v, want %+v (seed %x)",
					i, res[i], wantRes[i], binary.BigEndian.AppendUint16(nil, uint16(i)))
			}
		}

		e, us := fuzzSnapshot()
		en := uint32(e.g.N())
		u := us[(len(data)*131+int(data[0]))%len(us)]
		thr := float64(1+int(kb)) / 512 // 0.002 .. 0.5
		part := make([][2]uint32, s)
		for si := range part {
			part[si] = [2]uint32{uint32(si) * en / uint32(s), uint32(si+1) * en / uint32(s)}
		}
		tfrags, _ := shardFrags(t, e, u, thr, part)
		want, wantSt, err := e.search(context.Background(), u, 0, thr, e.p.Workers)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(want, e.Threshold(u, thr)) {
			t.Fatalf("u=%d theta=%g: search at k = 0 is not Threshold", u, thr)
		}
		tres, tstats := MergeShardTopKScratch(0, thr, tfrags, nil)
		sameAnswer(t, fmt.Sprintf("u=%d theta=%g shards=%d", u, thr, s), tres, tstats, want, wantSt)
	})
}
