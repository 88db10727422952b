package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the descriptive statistics the paper's analysis phase
// collects for each schema parameter (child counts, value lengths, ...).
type Summary struct {
	N            int
	Min, Max     float64
	Mean, StdDev float64
	Median       float64
	Skewness     float64
	// ExKurtosis is the excess kurtosis (0 for normal, -1.2 for uniform,
	// 6 for exponential).
	ExKurtosis float64
}

// Summarize computes descriptive statistics of xs. It returns a zero
// Summary for empty input.
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Median = sorted[len(sorted)/2]
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	s.Mean = sum / float64(s.N)
	m2, m3, m4 := 0.0, 0.0, 0.0
	for _, x := range xs {
		d := x - s.Mean
		m2 += d * d
		m3 += d * d * d
		m4 += d * d * d * d
	}
	m2 /= float64(s.N)
	m3 /= float64(s.N)
	m4 /= float64(s.N)
	s.StdDev = math.Sqrt(m2)
	if m2 > 0 {
		s.Skewness = m3 / math.Pow(m2, 1.5)
		s.ExKurtosis = m4/(m2*m2) - 3
	}
	return s
}

// Fit picks the distribution family that best matches xs by the method of
// moments, reproducing the paper's step "standard probability distributions
// are fit to the data". Candidates: Uniform, Normal, Exponential.
func Fit(xs []float64) Dist {
	s := Summarize(xs)
	if s.N == 0 {
		return Uniform{0, 0}
	}
	if s.StdDev == 0 {
		return Uniform{s.Min, s.Max}
	}
	candidates := []Dist{
		Uniform{s.Min, s.Max},
		Normal{Mu: s.Mean, Sigma: s.StdDev, Min: s.Min, Max: s.Max},
		Exponential{Lambda: 1 / math.Max(s.Mean-s.Min, 1e-9), Min: s.Min, Max: s.Max},
	}
	best, bestErr := candidates[0], math.Inf(1)
	for _, d := range candidates {
		e := fitError(d, s)
		if e < bestErr {
			best, bestErr = d, e
		}
	}
	return best
}

// fitError scores how far d's shape is from the sample's, using the
// (skewness, excess-kurtosis) signature that separates the three families:
// uniform (0, -1.2), normal (0, 0), exponential (2, 6). Lower is better.
func fitError(d Dist, s Summary) float64 {
	meanErr := math.Abs(d.Mean()-s.Mean) / math.Max(math.Abs(s.Mean), 1)
	var skew, exKurt float64
	switch d.(type) {
	case Uniform:
		skew, exKurt = 0, -1.2
	case Normal:
		skew, exKurt = 0, 0
	case Exponential:
		skew, exKurt = 2, 6
	}
	skewErr := math.Abs(skew - s.Skewness)
	kurtErr := math.Abs(exKurt - s.ExKurtosis)
	var implied float64
	switch t := d.(type) {
	case Uniform:
		implied = (t.Hi - t.Lo) / math.Sqrt(12)
	case Normal:
		implied = t.Sigma
	case Exponential:
		implied = 1 / t.Lambda
	}
	sdErr := math.Abs(implied-s.StdDev) / math.Max(s.StdDev, 1e-9)
	return meanErr + 0.5*skewErr + 0.25*kurtErr + sdErr
}

// Histogram counts occurrences of integer-valued samples, the raw form in
// which the paper's analyzer gathers element/attribute statistics.
type Histogram struct {
	counts map[int]int
	total  int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{counts: map[int]int{}} }

// Add records one observation.
func (h *Histogram) Add(v int) { h.counts[v]++; h.total++ }

// Total returns the number of observations.
func (h *Histogram) Total() int { return h.total }

// Values returns the observed values in ascending order.
func (h *Histogram) Values() []int {
	vs := make([]int, 0, len(h.counts))
	for v := range h.counts {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}

// Samples expands the histogram back to a float sample slice (ordered).
func (h *Histogram) Samples() []float64 {
	var xs []float64
	for _, v := range h.Values() {
		for i := 0; i < h.counts[v]; i++ {
			xs = append(xs, float64(v))
		}
	}
	return xs
}

// String renders a compact textual form for diagnostics.
func (h *Histogram) String() string {
	return fmt.Sprintf("Histogram(n=%d, distinct=%d)", h.total, len(h.counts))
}
