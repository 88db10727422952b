// Package stats provides the deterministic random number generation and
// the probability distributions that drive XBench database generation.
//
// The paper fits standard probability distributions (with explicit minimum
// and maximum bounds "to generate finite documents") to statistics gathered
// from real corpora; this package supplies those distribution families plus
// a simple moment-based fitter. All randomness flows through RNG, a small
// self-contained PCG32 generator, so a (class, size, seed) triple always
// regenerates byte-identical databases on any platform and Go version.
package stats

// RNG is a PCG-XSH-RR 32-bit pseudo random generator. It is deliberately
// self-contained (no math/rand) so generated databases are reproducible
// across Go releases.
type RNG struct {
	state uint64
	inc   uint64
}

const pcgMult = 6364136223846793005

// NewRNG returns a generator seeded deterministically from seed. Distinct
// streams for the same seed can be created with Split.
func NewRNG(seed uint64) *RNG {
	r := &RNG{inc: (seed << 1) | 1}
	r.state = splitmix64(seed)
	r.Uint32()
	return r
}

// Split derives an independent stream keyed by label, leaving r unchanged.
// It is used to give each document (or each template field) its own stream
// so that generating documents in a different order yields the same data.
func (r *RNG) Split(label uint64) *RNG {
	s := splitmix64(r.state ^ splitmix64(label))
	n := &RNG{inc: (splitmix64(label+0x9e3779b97f4a7c15) << 1) | 1}
	n.state = s
	n.Uint32()
	return n
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Uint32 returns the next 32 random bits.
func (r *RNG) Uint32() uint32 {
	old := r.state
	r.state = old*pcgMult + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	return uint64(r.Uint32())<<32 | uint64(r.Uint32())
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	bound := uint32(n)
	threshold := -bound % bound
	for {
		v := r.Uint32()
		m := uint64(v) * uint64(bound)
		if uint32(m) >= threshold {
			return int(m >> 32)
		}
	}
}

// IntRange returns a uniform int in [lo, hi] inclusive.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		lo, hi = hi, lo
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
