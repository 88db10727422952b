package main

import (
	"math"
	"sort"
	"time"
)

// tailMinBeyond is the number of samples that must lie beyond a tail
// percentile before it is reported: with fewer, the "percentile" is one
// scheduler hiccup, not a property of the system.
const tailMinBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the exact nearest-rank percentile of xs (p in (0,1]):
// the smallest sample with at least p of the samples at or below it.
// beyond is how many samples lie above its rank. Zero samples give 0, 0.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// median is the nearest-rank p50. It is always reported: the ten-beyond
// rule guards tails, and a median of few samples is still their middle.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.50)
	return v
}

// tail is a percentile above the median under the reporting rule: ok is
// false (and v zero) unless at least tailMinBeyond samples lie beyond it.
func tail(xs []float64, p float64) (v float64, ok bool) {
	v, beyond := percentile(xs, p)
	if beyond < tailMinBeyond {
		return 0, false
	}
	return v, true
}

// geomean is the geometric mean of the positive values of xs; values
// <= 0 (a leg that produced no sample) are skipped. No positive value
// gives 0.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// quartiles returns Q1 and Q3 by the method of Python's
// statistics.quantiles(values, n=4) (exclusive), which is what the
// acceptance rule is stated in. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	at := func(i int) float64 {
		// CPython: j = i*(len+1)//4 clamped to [1, len-1]; the remainder
		// taken against the clamped j interpolates (or extrapolates)
		// between s[j-1] and s[j].
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the run-to-run noise of a metric as a share of its median:
// the interquartile distance when there are at least four runs, the full
// range otherwise (two or three runs have no quartiles worth the name).
// Fewer than two runs, or a zero median, give 0.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	if len(xs) < 4 {
		s := sorted(xs)
		return (s[len(s)-1] - s[0]) / math.Abs(m)
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// Bound rule: a metric's regression bound is twice its observed range
// over repeated seed runs as a share of the median, never under
// minBound (below that, noise the runs happened not to show would trip
// it) and never over maxBound (the most the benchmark contract allows).
const (
	minBound = 0.05
	maxBound = 0.25
)

func boundFor(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return minBound
	}
	s := sorted(xs)
	b := 2 * (s[len(s)-1] - s[0]) / math.Abs(m)
	return math.Min(maxBound, math.Max(minBound, b))
}

// worseBy is how much cand is worse than base as a share of base, signed
// so that positive always means worse whichever direction is better.
func worseBy(base, cand float64, higherIsBetter bool) float64 {
	if base == 0 {
		return 0
	}
	d := (cand - base) / math.Abs(base)
	if higherIsBetter {
		return -d
	}
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
