package plan

import "sync"

// Feedback accumulates observed range-probe selectivities per index
// target, closing the loop between execution and the cost model.
// DefaultRangeSelectivity is only a prior; a workload whose date
// windows keep far more (or fewer) rows than 25% should have its range
// probes re-costed with the fraction they actually keep. The engine
// base holds one per engine and hands it to every Plan call in
// StatValues; a query path that runs a planned range access reports the
// row counts it saw through Physical.Observe, and the next Plan call
// costs that target with them.
//
// The estimate is an exponentially weighted moving average (alpha
// 0.5): U1 inserts grow the primary table and U2 deletes shrink it, so
// the data distribution drifts during a mixed run and old observations
// must decay instead of pinning the estimate at the first window seen.
//
// Safe for concurrent use; a nil *Feedback ignores Observe and reports
// nothing, so fixture statistics need no guards.
type Feedback struct {
	mu  sync.Mutex
	sel map[string]float64
	n   map[string]int64
}

// Observe records that a range access on target kept rows of total.
// Observations without a target or against an empty table say nothing
// about selectivity and are dropped.
func (f *Feedback) Observe(target string, rows, total int64) {
	if f == nil || target == "" || total <= 0 {
		return
	}
	obs := float64(rows) / float64(total)
	if obs < 0 {
		obs = 0
	} else if obs > 1 {
		obs = 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sel == nil {
		f.sel = map[string]float64{}
		f.n = map[string]int64{}
	}
	if cur, ok := f.sel[target]; ok {
		f.sel[target] = 0.5*cur + 0.5*obs
	} else {
		f.sel[target] = obs
	}
	f.n[target]++
}

// Selectivity returns the current estimate for target, and false when
// nothing has been observed for it, so a fresh store plans on the
// default prior.
func (f *Feedback) Selectivity(target string) (float64, bool) {
	if f == nil {
		return 0, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.sel[target]
	return s, ok
}

// Observations reports how many times target has been observed.
func (f *Feedback) Observations(target string) int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n[target]
}
