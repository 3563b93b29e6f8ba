package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
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

// mergeScored merges per-shard Threshold result lists best first. The
// lists cover disjoint vertex ranges under one total order, so the merge
// is their union, sorted (the router's k-way merge is internal/shard's).
func mergeScored(frags [][]Scored) []Scored {
	out := slices.Concat(frags...)
	slices.SortFunc(out, func(a, b Scored) int {
		if scoredLess(a, b) {
			return 1
		}
		return -1
	})
	return out
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
	ctx := context.Background()
	for name, p := range shardConfigs() {
		t.Run(name, func(t *testing.T) {
			e := Build(g, p)
			requireBothKinds(t, name, e.Snapshot, queries)
			requireAllClasses(t, name, e.Snapshot, queries)
			for _, u := range queries {
				for _, k := range []int{1, 20, 100000} {
					wantRes, wantStats := e.TopKStats(u, k)
					for pi, part := range partitions(n) {
						frags := make([][]ShardCand, len(part))
						for si, r := range part {
							f, _, err := e.TopKShardCtx(ctx, u, r[0], r[1])
							if err != nil {
								t.Fatalf("u=%d part=%d shard=%d: %v", u, pi, si, err)
							}
							frags[si] = f
						}
						res, stats := MergeShardTopK(k, e.p.Theta, frags)
						if stats != scanStats(wantStats) {
							t.Fatalf("u=%d k=%d part=%d: stats %+v, want %+v",
								u, k, pi, stats, scanStats(wantStats))
						}
						if len(res) != len(wantRes) {
							t.Fatalf("u=%d k=%d part=%d: %d results, want %d",
								u, k, pi, len(res), len(wantRes))
						}
						for j := range res {
							if res[j] != wantRes[j] {
								t.Fatalf("u=%d k=%d part=%d: result %d = %+v, want %+v",
									u, k, pi, j, res[j], wantRes[j])
							}
						}
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
	ctx := context.Background()
	for _, u := range []uint32{3, 400, 799} {
		_, want := e.TopKStats(u, 20)
		var cands int
		for _, r := range [][2]uint32{{0, n / 3}, {n / 3, n / 2}, {n / 2, n}} {
			_, st, err := e.TopKShardCtx(ctx, u, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
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

// TestThresholdShardMergeMatchesSearch: the fixed-floor query mode needs
// no replay — a plain best-first merge of per-shard result lists is
// exact, and per-shard scan stats sum to the single-node stats.
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
	for _, theta := range []float64{0.005, 0.05, 0.3} {
		for _, u := range us {
			want, wantStats, err := e.search(ctx, u, 0, theta, e.p.Workers)
			if err != nil {
				t.Fatal(err)
			}
			for pi, part := range partitions(n) {
				frags := make([][]Scored, len(part))
				var sum QueryStats
				for si, r := range part {
					f, st, err := e.ThresholdShardCtx(ctx, u, theta, r[0], r[1])
					if err != nil {
						t.Fatalf("u=%d part=%d shard=%d: %v", u, pi, si, err)
					}
					frags[si] = f
					sum.Candidates += st.Candidates
					sum.PrunedByBound += st.PrunedByBound
					sum.PrunedByRough += st.PrunedByRough
					sum.Refined += st.Refined
				}
				if sum != scanStats(wantStats) {
					t.Fatalf("theta=%g u=%d part=%d: stats sum %+v, want %+v",
						theta, u, pi, sum, scanStats(wantStats))
				}
				got := mergeScored(frags)
				if len(got) != len(want) {
					t.Fatalf("theta=%g u=%d part=%d: %d results, want %d",
						theta, u, pi, len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("theta=%g u=%d part=%d: result %d = %+v, want %+v",
							theta, u, pi, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// TestTopKShardBatchMatchesSingle: the batch shard entry point must be
// query-wise identical to the single-query one.
func TestTopKShardBatchMatchesSingle(t *testing.T) {
	g := graph.Collaboration(500, 4, 0.8, 30, 9)
	p := DefaultParams()
	p.Seed = 11
	e := Build(g, p)
	us := []uint32{0, 7, 123, 499, 250, 72, 115, 211}
	requireBothKinds(t, "shard batch", e.Snapshot, us)
	requireAllClasses(t, "shard batch", e.Snapshot, us)
	ctx := context.Background()
	frags, sts, err := e.TopKShardBatchCtx(ctx, us, 100, 400)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range us {
		want, wantSt, err := e.TopKShardCtx(ctx, u, 100, 400)
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

// FuzzMergeShardTopK checks partition invariance of the replay on
// synthetic fragments: merging any contiguous-range split of a
// well-formed candidate list must equal replaying the unsplit list.
// This exercises tie ordering (bounds drawn from a tiny value set),
// every candidate state, and k beyond the candidate count — free of
// engine-build cost.
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
		SortShardCands(cands)
		k := int(kb)

		wantRes, wantStats := MergeShardTopK(k, theta, [][]ShardCand{cands})

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
		res, stats := MergeShardTopK(k, theta, frags)
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
	})
}
