package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of every Histogram. Bucket i
// covers durations in (2^(i-1), 2^i] microseconds, with bucket 0
// covering (0, 1µs]; the top bucket is open-ended. 40 buckets reach
// 2^39 µs ≈ 6.4 days — far beyond any cell this benchmark measures —
// while keeping the histogram a fixed 352 bytes of atomics.
const NumBuckets = 40

// Histogram is a fixed-bucket, lock-free latency histogram with
// power-of-two microsecond buckets, which also keeps the exact smallest
// and largest observation. Observations and quantile reads are safe
// concurrently; quantiles read a best-effort snapshot. A nil *Histogram
// ignores observations and reports zeros.
type Histogram struct {
	buckets [NumBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	// lo is the smallest observation plus one (0: none yet), hi the
	// largest, both in nanoseconds.
	lo, hi atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketFor maps a duration to its bucket index.
func bucketFor(d time.Duration) int {
	us := d.Microseconds()
	if us <= 1 {
		return 0
	}
	i := bits.Len64(uint64(us - 1)) // ceil(log2(us))
	if i >= NumBuckets {
		return NumBuckets - 1
	}
	return i
}

// bucketUpper returns the inclusive upper bound of a bucket.
func bucketUpper(i int) time.Duration {
	return time.Duration(1<<uint(i)) * time.Microsecond
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	// The bounds move before the count, so a quantile read of a counted
	// observation finds it inside them.
	for lo := h.lo.Load(); lo == 0 || int64(d) < lo-1; lo = h.lo.Load() {
		if h.lo.CompareAndSwap(lo, int64(d)+1) {
			break
		}
	}
	for hi := h.hi.Load(); int64(d) > hi; hi = h.hi.Load() {
		if h.hi.CompareAndSwap(hi, int64(d)) {
			break
		}
	}
	h.buckets[bucketFor(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total observed time.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / time.Duration(n)
}

// Quantile estimates the q-th quantile (0 <= q <= 1) by linear
// interpolation within the bucket holding the target rank, clamped into
// the smallest and largest observation: p99 of three samples never reads
// above the slowest of them, nor p1 below the fastest.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	lo, hi := time.Duration(h.lo.Load()-1), time.Duration(h.hi.Load())
	if math.IsNaN(q) || q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := 0; i < NumBuckets; i++ {
		n := float64(h.buckets[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lower := time.Duration(0)
			if i > 0 {
				lower = bucketUpper(i - 1)
			}
			upper := bucketUpper(i)
			frac := (rank - cum) / n
			return min(max(lower+time.Duration(frac*float64(upper-lower)), lo), hi)
		}
		cum += n
	}
	return hi
}

// P50, P95 and P99 are the percentile shorthands the report tables use.
func (h *Histogram) P50() time.Duration { return h.Quantile(0.50) }

// P95 estimates the 95th percentile.
func (h *Histogram) P95() time.Duration { return h.Quantile(0.95) }

// P99 estimates the 99th percentile.
func (h *Histogram) P99() time.Duration { return h.Quantile(0.99) }
