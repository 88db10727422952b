package stats

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach calls emit(i) for every i in [0, n) on up to GOMAXPROCS
// goroutines, the caller's among them, and returns the error of the
// lowest i that failed. emit(i) must depend on i and on shared read-only
// state alone — each generated document or row is a function of (seed,
// index), drawn from its own Split(i) stream — and write only its own
// slot, so the result is the sequential one. Indexes are handed out from
// the top down: DC/MD's largest documents, the five flat ones, come last,
// and starting them first keeps one goroutine from finishing alone.
func ForEach(n int, emit func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(int64(n))
	work := func() {
		for i := next.Add(-1); i >= 0; i = next.Add(-1) {
			errs[i] = emit(int(i))
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
