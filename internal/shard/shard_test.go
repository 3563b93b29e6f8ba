package shard

import "testing"

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
