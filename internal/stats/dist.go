package stats

import (
	"fmt"
	"math"
	"sort"
)

// Dist is a bounded probability distribution over values drawn with an RNG.
// Every XBench distribution carries explicit minimum and maximum values, as
// required by the paper ("the minimum and maximum values of that
// distribution are defined in order to generate finite documents").
type Dist interface {
	// Draw samples one value.
	Draw(r *RNG) float64
	// Bounds returns the inclusive [min, max] support.
	Bounds() (min, max float64)
	// Mean returns the distribution mean (of the unbounded family; the
	// clamping shifts it only marginally for sane parameters).
	Mean() float64
	fmt.Stringer
}

// DrawInt samples a distribution and rounds to the nearest integer.
func DrawInt(r *RNG, d Dist) int {
	return int(math.Round(d.Draw(r)))
}

// Uniform is the continuous uniform distribution on [Lo, Hi].
type Uniform struct{ Lo, Hi float64 }

func (u Uniform) Draw(r *RNG) float64        { return u.Lo + r.Float64()*(u.Hi-u.Lo) }
func (u Uniform) Bounds() (float64, float64) { return u.Lo, u.Hi }
func (u Uniform) Mean() float64              { return (u.Lo + u.Hi) / 2 }
func (u Uniform) String() string             { return fmt.Sprintf("Uniform[%g,%g]", u.Lo, u.Hi) }

// Normal is the normal distribution clamped to [Min, Max].
type Normal struct {
	Mu, Sigma float64
	Min, Max  float64
}

func (n Normal) Draw(r *RNG) float64 {
	// Box-Muller transform.
	u1 := 1 - r.Float64() // in (0,1]
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return clamp(n.Mu+n.Sigma*z, n.Min, n.Max)
}
func (n Normal) Bounds() (float64, float64) { return n.Min, n.Max }
func (n Normal) Mean() float64              { return n.Mu }
func (n Normal) String() string {
	return fmt.Sprintf("Normal(mu=%g,sigma=%g)[%g,%g]", n.Mu, n.Sigma, n.Min, n.Max)
}

// Exponential is the exponential distribution with rate Lambda, shifted to
// start at Min and clamped at Max.
type Exponential struct {
	Lambda   float64
	Min, Max float64
}

func (e Exponential) Draw(r *RNG) float64 {
	x := -math.Log(1-r.Float64()) / e.Lambda
	return clamp(e.Min+x, e.Min, e.Max)
}
func (e Exponential) Bounds() (float64, float64) { return e.Min, e.Max }
func (e Exponential) Mean() float64              { return e.Min + 1/e.Lambda }
func (e Exponential) String() string {
	return fmt.Sprintf("Exp(lambda=%g)[%g,%g]", e.Lambda, e.Min, e.Max)
}

// Zipf draws integer ranks 1..N with probability proportional to 1/rank^S.
// It models the highly skewed element-value and word frequencies of the
// text-centric corpora.
type Zipf struct {
	N int     // number of ranks
	S float64 // skew, > 0
	// cdf is lazily built; Zipf values are immutable after first Draw.
	cdf []float64
}

// NewZipf precomputes the CDF for n ranks with skew s.
func NewZipf(n int, s float64) *Zipf {
	z := &Zipf{N: n, S: s}
	z.build()
	return z
}

func (z *Zipf) build() {
	z.cdf = make([]float64, z.N)
	sum := 0.0
	for i := 1; i <= z.N; i++ {
		sum += 1 / math.Pow(float64(i), z.S)
		z.cdf[i-1] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
}

func (z *Zipf) Draw(r *RNG) float64 {
	if z.cdf == nil {
		z.build()
	}
	u := r.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= z.N {
		i = z.N - 1
	}
	return float64(i + 1)
}
func (z *Zipf) Bounds() (float64, float64) { return 1, float64(z.N) }
func (z *Zipf) Mean() float64 {
	if z.cdf == nil {
		z.build()
	}
	m, prev := 0.0, 0.0
	for i, c := range z.cdf {
		m += float64(i+1) * (c - prev)
		prev = c
	}
	return m
}
func (z *Zipf) String() string { return fmt.Sprintf("Zipf(n=%d,s=%g)", z.N, z.S) }

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
