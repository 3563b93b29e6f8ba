package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

// tinyConfig keeps every experiment fast enough for unit tests.
func tinyConfig() Config {
	return Config{Scale: 0.04, Queries: 4, Seed: 1, MemoryBudget: 1 << 28, Workers: 2}
}

func TestCatalog(t *testing.T) {
	cat := Catalog(0.05)
	if len(cat) < 8 {
		t.Fatalf("catalog has %d datasets", len(cat))
	}
	seen := map[string]bool{}
	for _, d := range cat {
		if seen[d.Name] {
			t.Fatalf("duplicate dataset %s", d.Name)
		}
		seen[d.Name] = true
		g, err := d.Build()
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if g.N() == 0 || g.M() == 0 {
			t.Fatalf("%s: empty graph", d.Name)
		}
		if d.PaperN == 0 || d.PaperM == 0 {
			t.Fatalf("%s: missing paper sizes", d.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("ca-grqc-sim", 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("ca-GrQc", 0.1); err != nil {
		t.Fatal("paper-name lookup failed")
	}
	if _, err := ByName("nope", 0.1); err == nil {
		t.Fatal("expected error")
	}
}

func TestSmallCatalog(t *testing.T) {
	small := SmallCatalog(0.1)
	if len(small) != 4 {
		t.Fatalf("small catalog has %d entries", len(small))
	}
}

func TestFigure1(t *testing.T) {
	var buf bytes.Buffer
	res := Figure1(&buf, tinyConfig())
	if len(res) == 0 {
		t.Fatal("no results")
	}
	for _, r := range res {
		if len(r.Points) == 0 {
			t.Fatalf("%s: no scatter points", r.Dataset)
		}
		// The headline claim: slope ~1 and strong correlation in
		// log-log space, and ranking well preserved.
		if math.Abs(r.LogSlope-1) > 0.35 {
			t.Errorf("%s: log-log slope %.3f far from 1", r.Dataset, r.LogSlope)
		}
		if r.LogR2 < 0.7 {
			t.Errorf("%s: log-log R^2 %.3f too weak", r.Dataset, r.LogR2)
		}
		if r.RankOverlap < 0.8 {
			t.Errorf("%s: rank overlap %.3f too low", r.Dataset, r.RankOverlap)
		}
	}
	if !strings.Contains(buf.String(), "Figure 1") {
		t.Fatal("report missing header")
	}
}

func TestFigure2(t *testing.T) {
	var buf bytes.Buffer
	res := Figure2(&buf, tinyConfig())
	if len(res) != 4 {
		t.Fatalf("got %d series", len(res))
	}
	for _, s := range res {
		if len(s.Ranks) == 0 {
			t.Fatalf("%s: empty series", s.Dataset)
		}
		if s.NetworkAvgDistance <= 0 {
			t.Fatalf("%s: no baseline distance", s.Dataset)
		}
		// Claim: the top-ranked similar vertex is no farther than the
		// network average (at full scale it is far closer; tiny test
		// graphs are dense, so allow slack).
		if s.AvgDistance[0] > s.NetworkAvgDistance+0.5 {
			t.Errorf("%s: top-1 distance %.2f above network average %.2f",
				s.Dataset, s.AvgDistance[0], s.NetworkAvgDistance)
		}
	}
}

func TestTable2(t *testing.T) {
	var buf bytes.Buffer
	rows := Table2(&buf, tinyConfig())
	if len(rows) != len(Catalog(1)) {
		t.Fatalf("got %d rows", len(rows))
	}
	out := buf.String()
	if !strings.Contains(out, "ca-grqc-sim") || !strings.Contains(out, "paper n") {
		t.Fatal("report incomplete")
	}
}

func TestTable3(t *testing.T) {
	var buf bytes.Buffer
	rows := Table3(&buf, tinyConfig())
	if len(rows) != 4*len(Table3Thresholds) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Proposed < 0 || r.Proposed > 1 || r.Fogaras < 0 || r.Fogaras > 1 {
			t.Fatalf("accuracy out of range: %+v", r)
		}
	}
	// The shape claim: averaged over datasets with data, the proposed
	// method is accurate (paper reports 0.82-0.99).
	var sum float64
	var cnt int
	for _, r := range rows {
		if r.Pairs > 0 {
			sum += r.Proposed
			cnt++
		}
	}
	if cnt > 0 && sum/float64(cnt) < 0.7 {
		t.Errorf("mean proposed accuracy %.3f suspiciously low", sum/float64(cnt))
	}
}

func TestTable4(t *testing.T) {
	cfg := tinyConfig()
	cfg.MemoryBudget = 3 * 8 * 500 * 500 // let Yu pass only for n <= 500
	var buf bytes.Buffer
	rows := Table4(&buf, cfg)
	if len(rows) != len(Catalog(1)) {
		t.Fatalf("got %d rows", len(rows))
	}
	sawYuFail, sawYuPass := false, false
	for _, r := range rows {
		if r.PropPreproc <= 0 || r.PropQuery <= 0 || r.PropBytes <= 0 {
			t.Fatalf("proposed measurements missing: %+v", r)
		}
		if r.YuOK {
			sawYuPass = true
		} else {
			sawYuFail = true
		}
	}
	if !sawYuFail {
		t.Error("no Yu memory failure reproduced")
	}
	if !sawYuPass {
		t.Error("Yu never ran; budget too small for the test")
	}
	if !strings.Contains(buf.String(), "—") {
		t.Error("report missing failure dashes")
	}
}

func TestTable4FogarasBudgetFailure(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale = 0.02
	cfg.Queries = 2
	cfg.SkipAllPairs = true
	cfg.MemoryBudget = 200 * 1024 // tiny: Fogaras must fail on larger sets
	var buf bytes.Buffer
	rows := Table4(&buf, cfg)
	sawFail := false
	for _, r := range rows {
		if !r.FogOK {
			sawFail = true
		}
	}
	if !sawFail {
		t.Fatal("no Fogaras memory failure reproduced")
	}
}

func TestTable1Scaling(t *testing.T) {
	var buf bytes.Buffer
	rows := Table1(&buf, tinyConfig())
	if len(rows) != 3 {
		t.Fatalf("got %d scaling rows", len(rows))
	}
	// Sizes must actually grow.
	if rows[2].N <= rows[0].N {
		t.Fatal("sweep sizes not increasing")
	}
	// The headline scaling claim: query time must not grow anywhere
	// near linearly with n (allow generous noise: 16x size -> < 8x time).
	ratioN := float64(rows[2].N) / float64(rows[0].N)
	ratioQ := float64(rows[2].Query) / float64(rows[0].Query+1)
	if ratioQ > ratioN/2 {
		t.Errorf("query time scales with n: size x%.1f, time x%.1f", ratioN, ratioQ)
	}
}

func TestAblation(t *testing.T) {
	var buf bytes.Buffer
	rows := Ablation(&buf, tinyConfig())
	if len(rows) != 4 {
		t.Fatalf("got %d ablation rows", len(rows))
	}
	for _, r := range rows {
		if r.Recall < 0 || r.Recall > 1 {
			t.Fatalf("bad recall: %+v", r)
		}
		if r.Query <= 0 {
			t.Fatalf("no query time: %+v", r)
		}
	}
}

func TestSensitivity(t *testing.T) {
	var buf bytes.Buffer
	rows := Sensitivity(&buf, tinyConfig())
	if len(rows) != 10 { // 3 c values + 4 R values + 3 T values
		t.Fatalf("got %d sensitivity rows", len(rows))
	}
	for _, r := range rows {
		if r.NDCG < 0 || r.NDCG > 1.0001 || r.PrecK < 0 || r.PrecK > 1.0001 {
			t.Fatalf("metric out of range: %+v", r)
		}
	}
	// Quality must not degrade as R grows (allow small noise).
	var r10, r500 float64
	for _, r := range rows {
		if r.Param == "R" && r.Value == 10 {
			r10 = r.NDCG
		}
		if r.Param == "R" && r.Value == 500 {
			r500 = r.NDCG
		}
	}
	if r500+0.05 < r10 {
		t.Errorf("NDCG at R=500 (%.3f) worse than at R=10 (%.3f)", r500, r10)
	}
}

func TestLogRegression(t *testing.T) {
	// Perfectly proportional points: slope 1, R² 1.
	var pts []Fig1Point
	for _, x := range []float64{0.01, 0.02, 0.05, 0.1, 0.4} {
		pts = append(pts, Fig1Point{Exact: x, Approx: 0.5 * x})
	}
	slope, r2 := logRegression(pts)
	if math.Abs(slope-1) > 1e-12 || math.Abs(r2-1) > 1e-12 {
		t.Fatalf("slope %v r2 %v", slope, r2)
	}
	// Quadratic relation: slope 2.
	pts = pts[:0]
	for _, x := range []float64{0.01, 0.02, 0.05, 0.1} {
		pts = append(pts, Fig1Point{Exact: x, Approx: x * x})
	}
	slope, _ = logRegression(pts)
	if math.Abs(slope-2) > 1e-9 {
		t.Fatalf("quadratic slope %v", slope)
	}
	// Degenerate inputs.
	if s, r := logRegression(nil); s != 0 || r != 0 {
		t.Fatal("empty regression nonzero")
	}
	if s, r := logRegression([]Fig1Point{{0, 0.1}, {-1, 0.2}}); s != 0 || r != 0 {
		t.Fatal("non-positive points should be excluded")
	}
}

func TestFormatHelpers(t *testing.T) {
	cases := map[time.Duration]string{
		500 * time.Microsecond: "0.50 ms",
		20 * time.Millisecond:  "20.0 ms",
		3 * time.Second:        "3.00 s",
		2 * time.Minute:        "2.0 min",
	}
	for d, want := range cases {
		if got := fmtDuration(d); got != want {
			t.Errorf("fmtDuration(%v) = %q, want %q", d, got, want)
		}
	}
	if fmtBytes(512) != "512 B" || fmtBytes(2048) != "2.0 KB" {
		t.Error("fmtBytes small values wrong")
	}
	if !strings.Contains(fmtBytes(3<<30), "GB") {
		t.Error("fmtBytes GB wrong")
	}
}

func TestConfigNormalization(t *testing.T) {
	c := Config{}.normalized()
	if c.Scale != 1 || c.Queries != 20 || c.Seed != 1 || c.MemoryBudget != 1<<30 {
		t.Fatalf("bad defaults: %+v", c)
	}
}
