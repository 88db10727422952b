package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must not assume order
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n          int
		p          float64
		want       float64
		wantBeyond int
	}{
		{100, 0.50, 50, 50},
		{100, 0.99, 99, 1},
		{100, 1.00, 100, 0},
		{1000, 0.99, 990, 10},
		{7, 0.50, 4, 3},
		{1, 0.99, 1, 0},
		{20, 0.95, 19, 1},
	}
	for _, c := range cases {
		v, beyond := percentile(seq(c.n), c.p)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("percentile(1..%d, %v) = %v with %d beyond, want %v with %d", c.n, c.p, v, beyond, c.want, c.wantBeyond)
		}
	}
	if v, beyond := percentile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("percentile of nothing = %v, %d", v, beyond)
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("percentile reordered its input")
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	if _, ok := tail(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples has 9 beyond it and must not be reported")
	}
	if v, ok := tail(seq(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1000 samples = %v, %v; want 990 reported", v, ok)
	}
	if v, ok := tail(seq(200), 0.95); !ok || v != 190 {
		t.Errorf("p95 of 200 samples = %v, %v; want 190 reported", v, ok)
	}
	if median(seq(3)) != 2 {
		t.Error("the median is reported however few the samples")
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 10, 100}); !near(g, 10) {
		t.Errorf("geomean(1,10,100) = %v", g)
	}
	// A tenfold gain on one of four engines moves the mean 10^(1/4).
	base, gain := geomean([]float64{5, 5, 5, 50}), geomean([]float64{5, 5, 5, 5})
	if !near(base/gain, math.Pow(10, 0.25)) {
		t.Errorf("one engine 10x moved the geomean %vx", base/gain)
	}
	if g := geomean([]float64{0, 4, 9}); !near(g, 6) {
		t.Errorf("a leg without a sample must be skipped, got %v", g)
	}
	if geomean(nil) != 0 || geomean([]float64{0, 0}) != 0 {
		t.Error("no positive value must give 0")
	}
}

// Expected quartiles are CPython's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20, 30, 40}, 12.5, 37.5},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{2.5, 3.1, 2.9, 3.0, 2.7, 3.3, 2.8, 3.2, 2.6, 3.4, 9.9}, 2.7, 3.3},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 5.5/5) {
		t.Errorf("spread of 1..10 = %v, want IQR 5.5 over nearest-rank median 5", s)
	}
	if s := spread([]float64{100, 110}); !near(s, 0.1) {
		t.Errorf("two runs: spread = %v, want range over median", s)
	}
	if spread([]float64{7}) != 0 || spread(nil) != 0 {
		t.Error("fewer than two runs have no spread")
	}
}

func TestBoundRule(t *testing.T) {
	if b := boundFor([]float64{100, 100.5, 101, 99.5, 100}); b != minBound {
		t.Errorf("a 1.5%% range gives %v, want the %v floor", b, minBound)
	}
	if b := boundFor([]float64{100, 104, 96, 100, 100}); !near(b, 0.16) {
		t.Errorf("an 8%% range gives %v, want twice it", b)
	}
	if b := boundFor([]float64{100, 150, 60}); b != maxBound {
		t.Errorf("a wild range gives %v, want the %v cap", b, maxBound)
	}
}

func TestWorseBy(t *testing.T) {
	if w := worseBy(100, 110, false); !near(w, 0.10) {
		t.Errorf("latency 100 -> 110 is worse by %v", w)
	}
	if w := worseBy(100, 90, true); !near(w, 0.10) {
		t.Errorf("qps 100 -> 90 is worse by %v", w)
	}
	if w := worseBy(100, 120, true); !near(w, -0.20) {
		t.Errorf("qps 100 -> 120 is worse by %v", w)
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "read_p50_ms", Better: "lower", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	cases := []struct {
		name       string
		base, cand []float64
		want       string
	}{
		{"same", steady, steady, "ok"},
		{"within bound", steady, []float64{1.05, 1.06, 1.04, 1.05, 1.07}, "ok"},
		{"beyond bound", steady, []float64{1.20, 1.21, 1.19, 1.20, 1.22}, "worse"},
		{"noisy candidate", steady, []float64{0.8, 1.3, 1.0, 1.5, 0.7}, "unresolved"},
		{"noisy but every run better", []float64{2.0, 2.6, 2.1, 3.0, 2.2}, steady, "ok"},
	}
	for _, c := range cases {
		if got, _ := verdict(lower, c.base, c.cand); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	higher := specMetric{Name: "qps", Better: "higher", Bound: 0.10}
	if got, _ := verdict(higher, []float64{100, 101, 99}, []float64{80, 81, 79}); got != "worse" {
		t.Errorf("qps 100 -> 80: verdict %q", got)
	}
}
