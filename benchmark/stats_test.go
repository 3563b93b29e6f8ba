package main

import "testing"

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := ascending(100)
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

// A percentile is reported only with ten samples beyond it; below that
// the highest percentile that has ten beyond it is reported instead,
// and the caller is told which.
func TestTailPercentileTenSamplesBeyond(t *testing.T) {
	// 1000 samples: exactly ten lie beyond p99, so p99 stands.
	v, at := tailPercentile(ascending(1000), 0.99)
	if v != 990 || at != 0.99 {
		t.Errorf("n=1000: got (%v, %v), want (990, 0.99)", v, at)
	}
	// 999 samples: only nine lie beyond the nearest-rank p99 (990), so
	// the report moves down one rank.
	v, at = tailPercentile(ascending(999), 0.99)
	if v != 989 || at != 989.0/999 {
		t.Errorf("n=999: got (%v, %v), want (989, %v)", v, at, 989.0/999)
	}
	// 50 samples: the best available is the 40th, p80.
	v, at = tailPercentile(ascending(50), 0.99)
	if v != 40 || at != 0.8 {
		t.Errorf("n=50: got (%v, %v), want (40, 0.8)", v, at)
	}
	// Ten samples or fewer have no reportable tail.
	if v, at = tailPercentile(ascending(10), 0.99); v != 0 || at != 0 {
		t.Errorf("n=10: got (%v, %v), want (0, 0)", v, at)
	}
}
