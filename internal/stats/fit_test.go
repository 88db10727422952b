package stats

import (
	"math"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.Median != 3 {
		t.Fatalf("Summarize basic stats wrong: %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(2)) > 1e-9 {
		t.Fatalf("StdDev = %g", s.StdDev)
	}
	if math.Abs(s.Skewness) > 1e-9 {
		t.Fatalf("symmetric sample has skewness %g", s.Skewness)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatalf("empty Summarize: %+v", s)
	}
}

func TestFitRecoversFamilies(t *testing.T) {
	r := NewRNG(77)
	draw := func(d Dist, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = d.Draw(r)
		}
		return xs
	}

	if _, ok := Fit(draw(Uniform{0, 100}, 4000)).(Uniform); !ok {
		t.Error("Fit did not recover Uniform family")
	}
	if _, ok := Fit(draw(Normal{Mu: 50, Sigma: 5, Min: 0, Max: 100}, 4000)).(Normal); !ok {
		t.Error("Fit did not recover Normal family")
	}
	if _, ok := Fit(draw(Exponential{Lambda: 0.2, Min: 0, Max: 1000}, 4000)).(Exponential); !ok {
		t.Error("Fit did not recover Exponential family")
	}
}

func TestFitDegenerate(t *testing.T) {
	d := Fit([]float64{7, 7, 7, 7})
	lo, hi := d.Bounds()
	if lo != 7 || hi != 7 {
		t.Fatalf("constant sample fit bounds = [%g,%g]", lo, hi)
	}
	if Fit(nil) == nil {
		t.Fatal("Fit(nil) returned nil")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int{1, 2, 2, 3, 3, 3} {
		h.Add(v)
	}
	if h.Total() != 6 {
		t.Fatalf("Total = %d", h.Total())
	}
	vs := h.Values()
	if len(vs) != 3 || vs[0] != 1 || vs[2] != 3 {
		t.Fatalf("Values = %v", vs)
	}
	if xs := h.Samples(); len(xs) != 6 || xs[0] != 1 || xs[5] != 3 {
		t.Fatalf("Samples = %v", xs)
	}
	// Round-trip: fitting the histogram samples must not panic and should
	// stay within the observed bounds.
	d := Fit(h.Samples())
	if lo, hi := d.Bounds(); lo < 1 || hi > 3 {
		t.Fatalf("fit bounds [%g,%g] exceed data", lo, hi)
	}
}
