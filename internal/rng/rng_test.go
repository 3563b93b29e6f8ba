package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs out of 100", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero seed produced only %d distinct values out of 100", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Child stream must not simply replay the parent stream.
	p := New(7)
	p.Uint64() // consume the split draw
	diverged := false
	for i := 0; i < 50; i++ {
		if child.Uint64() != p.Uint64() {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("split child replays parent stream")
	}
}

func TestUint32nRange(t *testing.T) {
	r := New(3)
	for _, n := range []uint32{1, 2, 3, 7, 100, 1 << 20, math.MaxUint32} {
		for i := 0; i < 200; i++ {
			v := r.Uint32n(n)
			if v >= n {
				t.Fatalf("Uint32n(%d) returned %d", n, v)
			}
		}
	}
}

func TestUint32nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n == 0")
		}
	}()
	New(1).Uint32n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for n == %d", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

func TestUint32nUniform(t *testing.T) {
	// Chi-squared sanity check on 8 buckets.
	r := New(99)
	const buckets = 8
	const draws = 80000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[r.Uint32n(buckets)]++
	}
	expect := float64(draws) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expect
		chi2 += d * d / expect
	}
	// 7 dof; 0.999 quantile is ~24.3. Be generous.
	if chi2 > 30 {
		t.Fatalf("chi-squared too large: %f (counts %v)", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %f too far from 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkUint32n(b *testing.B) {
	r := New(1)
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += r.Uint32n(12345)
	}
	_ = sink
}
