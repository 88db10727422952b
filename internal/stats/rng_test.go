package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	s1 := r.Split(1)
	s2 := r.Split(2)
	s1again := r.Split(1)
	if s1.Uint64() != s1again.Uint64() {
		t.Fatal("Split is not deterministic for the same label")
	}
	if v1, v2 := s1.Uint64(), s2.Uint64(); v1 == v2 {
		t.Fatal("Split streams for different labels coincide")
	}
	// Splitting must not advance the parent.
	before := *r
	_ = r.Split(99)
	if *r != before {
		t.Fatal("Split mutated the parent RNG")
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for n := 1; n <= 17; n++ {
		seen := map[int]bool{}
		for i := 0; i < 200*n; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		if len(seen) != n {
			t.Fatalf("Intn(%d) never produced all %d values (got %d)", n, n, len(seen))
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(-3, 5)
		if v < -3 || v > 5 {
			t.Fatalf("IntRange(-3,5) = %d", v)
		}
	}
	if v := r.IntRange(4, 4); v != 4 {
		t.Fatalf("IntRange(4,4) = %d", v)
	}
	// Reversed bounds are normalized.
	if v := r.IntRange(9, 2); v < 2 || v > 9 {
		t.Fatalf("IntRange(9,2) = %d", v)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(5)
	sum := 0.0
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
		sum += f
	}
	if mean := sum / 10000; mean < 0.45 || mean > 0.55 {
		t.Fatalf("Float64 mean %g far from 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(9)
	quickCheck := func(n uint8) bool {
		m := int(n%50) + 1
		p := r.Perm(m)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == m
	}
	if err := quick.Check(quickCheck, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformStats(t *testing.T) {
	r := NewRNG(1)
	d := Uniform{10, 20}
	for i := 0; i < 5000; i++ {
		v := d.Draw(r)
		if v < 10 || v >= 20 {
			t.Fatalf("Uniform draw %g outside [10,20)", v)
		}
	}
	if m := d.Mean(); m != 15 {
		t.Fatalf("Uniform mean = %g", m)
	}
}

func TestNormalClamped(t *testing.T) {
	r := NewRNG(2)
	d := Normal{Mu: 50, Sigma: 30, Min: 0, Max: 100}
	sum := 0.0
	for i := 0; i < 5000; i++ {
		v := d.Draw(r)
		if v < 0 || v > 100 {
			t.Fatalf("Normal draw %g outside clamp", v)
		}
		sum += v
	}
	if mean := sum / 5000; math.Abs(mean-50) > 3 {
		t.Fatalf("clamped Normal mean %g far from 50", mean)
	}
}

func TestExponentialShape(t *testing.T) {
	r := NewRNG(4)
	d := Exponential{Lambda: 0.5, Min: 1, Max: 100}
	below, total := 0, 20000
	for i := 0; i < total; i++ {
		v := d.Draw(r)
		if v < 1 || v > 100 {
			t.Fatalf("Exponential draw %g outside bounds", v)
		}
		if v < d.Mean() {
			below++
		}
	}
	// Exponential is right-skewed: well over half the mass below the mean.
	if frac := float64(below) / float64(total); frac < 0.55 {
		t.Fatalf("Exponential not right-skewed: %g below mean", frac)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(6)
	z := NewZipf(100, 1.0)
	counts := make([]int, 101)
	for i := 0; i < 20000; i++ {
		v := int(z.Draw(r))
		if v < 1 || v > 100 {
			t.Fatalf("Zipf draw %d out of range", v)
		}
		counts[v]++
	}
	if counts[1] <= counts[50]*3 {
		t.Fatalf("Zipf rank 1 (%d) not much more frequent than rank 50 (%d)",
			counts[1], counts[50])
	}
	lo, hi := z.Bounds()
	if lo != 1 || hi != 100 {
		t.Fatalf("Zipf bounds = %g,%g", lo, hi)
	}
}

func TestDrawIntRounds(t *testing.T) {
	r := NewRNG(10)
	d := Uniform{2.4, 2.6}
	for i := 0; i < 100; i++ {
		if v := DrawInt(r, d); v != 2 && v != 3 {
			t.Fatalf("DrawInt = %d", v)
		}
	}
}
