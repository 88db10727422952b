package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Counter("x").Add(5)
	r.Counter("x").Set(9)
	r.Counter("x").SetMax(9)
	if got := r.Counter("x").Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}
	r.Histogram("h").Observe(time.Millisecond)
	if r.Histogram("h").Count() != 0 || r.Histogram("h").P99() != 0 {
		t.Fatal("nil histogram recorded something")
	}
	sp := r.StartSpan(PhaseScan)
	sp.End()
	if n := len(r.Snapshot().Counters); n != 0 {
		t.Fatalf("nil registry snapshot has %d counters", n)
	}
}

func TestCounters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pager.read")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	if r.Counter("pager.read") != c {
		t.Fatal("Counter did not return the same instance")
	}
	g := r.Counter("btree.idx:hw.height")
	g.SetMax(3)
	g.SetMax(2)
	if g.Value() != 3 {
		t.Fatalf("SetMax regressed to %d", g.Value())
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	r.Counter("pager.read").Add(10)
	r.Counter("pager.hit").Add(30)
	r.Counter("btree.idx.height").Set(2)
	before := r.Snapshot()
	r.Counter("pager.read").Add(5)
	r.Counter("pager.write").Add(2)
	r.Counter("btree.idx.height").Set(3)
	sp := r.StartSpan(PhaseScan)
	time.Sleep(time.Millisecond)
	sp.End()
	b := r.Snapshot().Delta(before)

	if got := b.Get("pager.read"); got != 5 {
		t.Fatalf("pager.read delta = %d, want 5", got)
	}
	if got := b.Get("pager.write"); got != 2 {
		t.Fatalf("pager.write delta = %d, want 2", got)
	}
	if got := b.Get("pager.hit"); got != 0 {
		t.Fatalf("unchanged counter leaked into delta: %d", got)
	}
	if got := b.Get("btree.idx.height"); got != 3 {
		t.Fatalf("gauge delta = %d, want level 3", got)
	}
	if b.PagerIO() != 7 {
		t.Fatalf("PagerIO = %d, want 7", b.PagerIO())
	}
	if d := b.Phases[PhaseScan]; d < time.Millisecond {
		t.Fatalf("scan phase = %v, want >= 1ms", d)
	}
	if _, ok := b.Counters["phase.scan.ns"]; ok {
		t.Fatal("phase counter leaked into Counters")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	// Buckets are powers of two, so quantiles are bucket-resolution
	// estimates: p50 of 1..100ms must land within (32ms, 64ms] and the
	// estimate must be ordered p50 <= p95 <= p99.
	p50, p95, p99 := h.P50(), h.P95(), h.P99()
	if p50 <= 32*time.Millisecond || p50 > 64*time.Millisecond {
		t.Fatalf("p50 = %v, want in (32ms, 64ms]", p50)
	}
	if p95 < p50 || p99 < p95 {
		t.Fatalf("quantiles out of order: %v %v %v", p50, p95, p99)
	}
	if p99 > bucketUpper(bucketFor(100*time.Millisecond)) {
		t.Fatalf("p99 = %v, beyond the 100ms max's bucket edge", p99)
	}
	if m := h.Mean(); m < 40*time.Millisecond || m > 60*time.Millisecond {
		t.Fatalf("mean = %v, want ~50.5ms", m)
	}
}

// TestQuantilesStayInsideObservations: a bucket's interpolation would
// put p95 and p99 of 120, 250 and 301 µs at 473.6 and 504.3 µs, above
// the slowest sample; clamped, they are at most 301 µs, and p0 at least
// the fastest.
func TestQuantilesStayInsideObservations(t *testing.T) {
	h := NewHistogram()
	for _, us := range []time.Duration{120, 250, 301} {
		h.Observe(us * time.Microsecond)
	}
	if p95, p99 := h.P95(), h.P99(); p95 > 301*time.Microsecond || p99 > 301*time.Microsecond {
		t.Fatalf("p95 %v, p99 %v above the largest observation 301µs", p95, p99)
	}
	if p0 := h.Quantile(0); p0 < 120*time.Microsecond {
		t.Fatalf("p0 %v below the smallest observation 120µs", p0)
	}
}

func TestHistogramEdges(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram not zero")
	}
	h.Observe(0)
	h.Observe(-time.Second) // clamped
	h.Observe(200 * 365 * 24 * time.Hour)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if q := h.Quantile(1.0); q < bucketUpper(NumBuckets-2) {
		t.Fatalf("max quantile = %v, want top bucket", q)
	}
	if h.Quantile(-1) > time.Microsecond {
		t.Fatal("q<0 not clamped to min")
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("pager.read").Inc()
				r.Histogram("phase.scan").Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("pager.read").Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Histogram("phase.scan").Count(); got != 8000 {
		t.Fatalf("concurrent histogram = %d, want 8000", got)
	}
}

func TestPhaseNameParsing(t *testing.T) {
	if n, ok := phaseName("phase.index-probe.ns"); !ok || n != "index-probe" {
		t.Fatalf("phaseName = %q, %v", n, ok)
	}
	for _, bad := range []string{"pager.read", "phase..ns", "phase.x", "x.ns"} {
		if _, ok := phaseName(bad); ok {
			t.Fatalf("phaseName accepted %q", bad)
		}
	}
}

// TestSpanEndDoesNotAllocate: once a registry has seen a phase, a span of
// it and a direct AddPhase allocate nothing, for every canonical name,
// and the time lands under the documented names.
func TestSpanEndDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	for _, name := range phaseNames {
		r.StartSpan(name).End() // first span resolves the cell
		if n := testing.AllocsPerRun(100, func() {
			r.StartSpan(name).End()
			r.AddPhase(name, time.Microsecond)
		}); n != 0 {
			t.Errorf("phase %q: %v allocations per span + AddPhase, want 0", name, n)
		}
		if got := r.Histogram("phase." + name).Count(); got != 203 {
			t.Errorf("phase %q: histogram holds %d observations, want 203", name, got)
		}
		if r.Counter("phase."+name+".ns").Value() < int64(101*time.Microsecond) {
			t.Errorf("phase %q: counter missed the AddPhase time", name)
		}
	}
	var nilReg *Registry
	if n := testing.AllocsPerRun(100, func() {
		nilReg.StartSpan(PhasePlan).End()
		nilReg.AddPhase(PhasePlan, time.Microsecond)
	}); n != 0 {
		t.Errorf("nil registry: %v allocations per span, want 0", n)
	}
}
