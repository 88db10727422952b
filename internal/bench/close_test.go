package bench

import (
	"bytes"
	"context"
	"testing"

	"xbench/internal/chaos"
	"xbench/internal/core"
	"xbench/internal/driver"
	"xbench/internal/workload"
)

// TestSweepLeavesNoOpenFiles pins the fd-stability acceptance: a mixed
// read/write sweep over three client counts must not grow the engine's
// simulated file-handle count, and Close must release every handle.
func TestSweepLeavesNoOpenFiles(t *testing.T) {
	ctx := context.Background()
	var buf bytes.Buffer
	r := tinyRunner(&buf)
	db, err := r.Database(core.DCMD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range EngineNames {
		t.Run(name, func(t *testing.T) {
			e := r.newEngine(name)
			if _, _, err := workload.LoadAndIndex(ctx, e, db); err != nil {
				t.Fatal(err)
			}
			f, ok := e.(chaos.Faultable)
			if !ok {
				t.Fatalf("%s does not expose its pager", name)
			}
			before := f.Pager().OpenFiles()
			if before == 0 {
				t.Fatal("no open files after load")
			}
			_, err := driver.Sweep(ctx, e, core.DCMD, []int{1, 2, 4}, nil, driver.Config{
				OpsPerClient: 10, Queries: []core.QueryID{core.Q1, core.Q5},
				Think: -1, UpdateFraction: 0.5,
			})
			if err != nil {
				t.Fatal(err)
			}
			// U1 inserts add documents, so the handle count may grow with
			// the data — a leak is any handle surviving Close.
			if after := f.Pager().OpenFiles(); after < before {
				t.Fatalf("open files shrank across sweep: %d -> %d", before, after)
			}
			if err := e.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if n := f.Pager().OpenFiles(); n != 0 {
				t.Fatalf("%d files still open after Close", n)
			}
			if err := e.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		})
	}
}
