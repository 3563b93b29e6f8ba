package shard

import (
	"sort"
	"testing"

	simrank "repro"
	"repro/internal/rng"
)

func TestRangePartition(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1001} {
		for _, total := range []int{1, 2, 3, 5, 16, 200} {
			prev := 0
			for i := 0; i < total; i++ {
				lo, hi := Range(i, total, n)
				if lo != prev {
					t.Fatalf("n=%d total=%d shard=%d: lo=%d, want %d (gap or overlap)", n, total, i, lo, prev)
				}
				if hi < lo {
					t.Fatalf("n=%d total=%d shard=%d: hi=%d < lo=%d", n, total, i, hi, lo)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d total=%d: partition ends at %d", n, total, prev)
			}
		}
	}
}

func topology(shards int) []Manifest {
	ms := make([]Manifest, shards)
	for i := range ms {
		ms[i] = Build(i, shards, 1000, 0xabc, 0xdef, 7, 0.01)
	}
	return ms
}

func TestValidateTopology(t *testing.T) {
	// Shuffled order must validate and come back sorted.
	ms := topology(3)
	ms[0], ms[2] = ms[2], ms[0]
	sorted, err := ValidateTopology(ms)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range sorted {
		if m.Shard != i {
			t.Fatalf("position %d holds shard %d", i, m.Shard)
		}
	}

	bad := func(name string, mutate func(ms []Manifest)) {
		ms := topology(3)
		mutate(ms)
		if _, err := ValidateTopology(ms); err == nil {
			t.Fatalf("%s: validated", name)
		}
	}
	bad("graph fp", func(ms []Manifest) { ms[1].GraphFP++ })
	bad("params fp", func(ms []Manifest) { ms[2].ParamsFP++ })
	bad("seed", func(ms []Manifest) { ms[0].Seed++ })
	bad("theta", func(ms []Manifest) { ms[1].Theta = 0.02 })
	bad("vertices", func(ms []Manifest) { ms[1].Vertices++ })
	bad("duplicate shard", func(ms []Manifest) { ms[2].Shard = 0 })
	bad("wrong range", func(ms []Manifest) { ms[1].Lo++ })
	if _, err := ValidateTopology(topology(3)[:2]); err == nil {
		t.Fatal("missing shard validated")
	}
	if _, err := ValidateTopology(nil); err == nil {
		t.Fatal("nil validated")
	}
}

func TestValidateTopologySingle(t *testing.T) {
	if _, err := ValidateTopology(topology(1)); err != nil {
		t.Fatal(err)
	}
}

// TestMergeTopKMatchesSort: merging range-partitioned fragments of any
// best-first list reproduces a global best-first sort — including score
// ties resolved by vertex id — for every k.
func TestMergeTopKMatchesSort(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 50; trial++ {
		n := int(r.Uint64()%200) + 1
		all := make([]simrank.Result, n)
		for i := range all {
			// A tiny score alphabet forces cross-fragment ties.
			all[i] = simrank.Result{Node: i, Score: float64(r.Uint64()%8) / 10}
		}
		want := make([]simrank.Result, n)
		copy(want, all)
		sort.Slice(want, func(i, j int) bool { return rankedBefore(want[i], want[j]) })

		shards := int(r.Uint64()%5) + 1
		frags := make([][]simrank.Result, shards)
		for i := 0; i < shards; i++ {
			lo, hi := Range(i, shards, n)
			var f []simrank.Result
			for _, x := range all {
				if x.Node >= lo && x.Node < hi {
					f = append(f, x)
				}
			}
			sort.Slice(f, func(a, b int) bool { return rankedBefore(f[a], f[b]) })
			frags[i] = f
		}
		for _, k := range []int{0, 1, 5, n, n + 100} {
			got := MergeTopK(k, frags)
			wk := k
			if wk == 0 || wk > n {
				wk = n
			}
			if len(got) != wk {
				t.Fatalf("trial %d k=%d: %d results, want %d", trial, k, len(got), wk)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d k=%d: result %d = %+v, want %+v", trial, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMergeTopKEmpty(t *testing.T) {
	if got := MergeTopK(5, nil); len(got) != 0 {
		t.Fatalf("merge of nothing returned %v", got)
	}
	if got := MergeTopK(5, [][]simrank.Result{nil, {}, nil}); len(got) != 0 {
		t.Fatalf("merge of empties returned %v", got)
	}
}
