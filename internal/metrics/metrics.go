// Package metrics is the observability substrate of the benchmark: cheap
// atomic counters, fixed-bucket latency histograms with percentile
// estimation, and a span-style tracer that attributes wall-clock time to
// named execution phases (parse, plan, index-probe, scan, materialize).
//
// One Registry is owned by each engine instance and shared — through the
// engine's pager — by every layer underneath it: the pager counts disk
// reads/writes/hits/evictions/fault retries, the B+tree
// counts node visits and splits, the relational engine counts index
// probes and table scans, and the engine's query path records phase
// spans. The workload driver snapshots the registry around a query so a
// Measurement carries the full delta, not just a wall-clock figure.
//
// Every method is safe on a nil receiver and does nothing, so
// instrumented code never has to guard the "metrics disabled" case; a
// counter increment on a live registry is one atomic add. Counter names
// are dot-separated "<layer>.<event>" (e.g. "pager.read", "btree.visit",
// "relational.probe"); phase time is exposed both as Breakdown.Phases and
// as "phase.<name>.ns" counters so deltas stay a plain map diff.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically-increasing (or gauge-set) atomic int64.
// A nil *Counter ignores all operations.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Set overwrites the value (gauge semantics, e.g. a tree height).
func (c *Counter) Set(n int64) {
	if c != nil {
		c.v.Store(n)
	}
}

// SetMax raises the value to n if n is larger (a high-water gauge).
func (c *Counter) SetMax(n int64) {
	if c == nil {
		return
	}
	for {
		cur := c.v.Load()
		if n <= cur || c.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Registry holds the named counters and histograms of one engine
// instance. Lookup is lock-protected; the returned Counter/Histogram
// operate lock-free, so hot paths should cache the pointer. A nil
// *Registry is valid and inert.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	// phases caches the cells of the canonical phases (span.go).
	phases [len(phaseNames)]atomic.Pointer[phaseCell]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. On a nil
// registry it returns nil (which is itself safe to use).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named latency histogram, creating it on first
// use. On a nil registry it returns nil.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every counter value. Phase spans
// appear as "phase.<name>.ns" counters.
type Snapshot struct {
	Counters map[string]int64
}

// Snapshot copies the current counter values. On a nil registry it
// returns an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]int64{}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	return s
}

// Breakdown is the difference between two snapshots: what one measured
// operation (a query, a load) did at every instrumented layer.
type Breakdown struct {
	// Counters holds the non-phase counter deltas, e.g. "pager.read".
	Counters map[string]int64
	// Phases holds wall-clock time attributed to each named phase. The
	// phases of one query do not nest (an engine whose scan interleaves
	// with another phase records each once, see Registry.AddPhase), so
	// they sum to at most its Execute.
	Phases map[string]time.Duration
}

// Delta returns the breakdown of activity between an earlier snapshot
// and this one. Gauge-style counters (names ending in ".height") are
// reported at their current value rather than as a difference.
func (s Snapshot) Delta(prev Snapshot) Breakdown {
	b := Breakdown{
		Counters: map[string]int64{},
		Phases:   map[string]time.Duration{},
	}
	for name, v := range s.Counters {
		d := v - prev.Counters[name]
		if IsGauge(name) {
			d = v
		}
		if d == 0 {
			continue
		}
		if phase, ok := phaseName(name); ok {
			b.Phases[phase] = time.Duration(d)
			continue
		}
		b.Counters[name] = d
	}
	return b
}

// Get returns a counter delta from the breakdown (0 when absent).
func (b Breakdown) Get(name string) int64 { return b.Counters[name] }

// PagerIO returns the disk reads+writes attributed by the pager counters.
func (b Breakdown) PagerIO() int64 {
	return b.Counters["pager.read"] + b.Counters["pager.write"]
}

// CacheHitRate returns the buffer-pool hit fraction of the breakdown's
// page accesses, and false when there were none.
func (b Breakdown) CacheHitRate() (float64, bool) {
	hits := b.Counters["pager.hit"]
	total := hits + b.Counters["pager.read"]
	if total == 0 {
		return 0, false
	}
	return float64(hits) / float64(total), true
}

// CounterNames returns the breakdown's counter names, sorted.
func (b Breakdown) CounterNames() []string {
	names := make([]string, 0, len(b.Counters))
	for n := range b.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

const (
	phasePrefix = "phase."
	phaseSuffix = ".ns"
)

// phaseName extracts the phase from a "phase.<name>.ns" counter name.
func phaseName(counter string) (string, bool) {
	if len(counter) <= len(phasePrefix)+len(phaseSuffix) ||
		counter[:len(phasePrefix)] != phasePrefix ||
		counter[len(counter)-len(phaseSuffix):] != phaseSuffix {
		return "", false
	}
	return counter[len(phasePrefix) : len(counter)-len(phaseSuffix)], true
}

// IsGauge reports whether a counter holds a level, not an accumulation
// (names ending in ".height"). Deltas report gauges at their current
// value, and aggregation across runs should take the maximum, not a sum.
func IsGauge(name string) bool {
	const suf = ".height"
	return len(name) >= len(suf) && name[len(name)-len(suf):] == suf
}
