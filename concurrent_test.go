package xbench

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"xbench/internal/core"
	"xbench/internal/workload"
)

// TestConcurrentExecuteAllEngines is the concurrency acceptance test of
// the engines' Execute contract: for every engine, 8 goroutines each run
// the full DC/MD query set against one shared loaded engine while another
// goroutine interleaves ColdReset and PageIO calls, and every answer must
// equal the single-threaded baseline. Run it with -race.
func TestConcurrentExecuteAllEngines(t *testing.T) {
	ctx := context.Background()
	db, err := Generate(DCMD, Small)
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.QueryIDs(DCMD)
	params := workload.Params(DCMD)

	for _, name := range []string{"native", "xcolumn", "xcollection", "sqlserver"} {
		name := name
		t.Run(name, func(t *testing.T) {
			e, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := LoadAndIndex(ctx, e, db); err != nil {
				t.Fatal(err)
			}

			// Single-threaded baseline, and the answerable query subset.
			baseline := map[QueryID]Result{}
			var mix []QueryID
			for _, q := range queries {
				res, err := e.Execute(ctx, q, params)
				if err != nil {
					if errors.Is(err, core.ErrNoQuery) || errors.Is(err, core.ErrUnsupported) {
						continue
					}
					t.Fatalf("baseline %s: %v", q, err)
				}
				baseline[q] = res
				mix = append(mix, q)
			}
			if len(mix) == 0 {
				t.Fatal("engine answers no queries")
			}

			const goroutines = 8
			errc := make(chan error, goroutines)
			stop := make(chan struct{})

			// Interleave the maintenance calls the bugfix contract covers:
			// ColdReset quiesces, PageIO reads concurrently with Execute.
			var maint sync.WaitGroup
			maint.Add(1)
			go func() {
				defer maint.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if i%3 == 0 {
						e.ColdReset()
					}
					_ = e.PageIO()
				}
			}()

			var workers sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				workers.Add(1)
				go func(g int) {
					defer workers.Done()
					for round := 0; round < 3; round++ {
						for _, q := range mix {
							res, err := e.Execute(ctx, q, params)
							if err != nil {
								errc <- fmt.Errorf("goroutine %d %s: %w", g, q, err)
								return
							}
							want := baseline[q]
							if len(res.Items) != len(want.Items) {
								errc <- fmt.Errorf("goroutine %d %s: %d items, baseline %d",
									g, q, len(res.Items), len(want.Items))
								return
							}
							for i := range want.Items {
								if res.Items[i] != want.Items[i] {
									errc <- fmt.Errorf("goroutine %d %s: item %d diverges", g, q, i)
									return
								}
							}
						}
					}
				}(g)
			}

			workers.Wait()
			close(stop)
			maint.Wait()
			close(errc)
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
		})
	}
}
