package bench

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"xbench/internal/core"
	"xbench/internal/pager"
	"xbench/internal/workload"
)

// TestConcurrentReadersDuringUpdates hammers every engine with query
// traffic while the update workload mutates documents. Run under -race
// (the CI race job does) it pins the thread-safety of the update path
// against concurrent readers; under plain `go test` it still checks that
// readers never observe an error mid-update.
func TestConcurrentReadersDuringUpdates(t *testing.T) {
	const readers = 4
	const updates = 12
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
			defer e.Close()
			// Reader mix: whatever the engine defines, like driver warmup.
			var mix []core.QueryID
			for _, q := range []core.QueryID{core.Q1, core.Q2, core.Q5, core.Q6} {
				if workload.RunWarm(ctx, e, db.Class, q).Err == nil {
					mix = append(mix, q)
				}
			}
			if len(mix) == 0 {
				t.Fatal("engine defines none of the reader queries")
			}
			var stop atomic.Bool
			var readErrs atomic.Int64
			var reads atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < readers; i++ {
				wg.Add(1)
				go func(q core.QueryID) {
					defer wg.Done()
					// At least one read each, even if the updates finish
					// before this goroutine is first scheduled.
					for ok := true; ok; ok = !stop.Load() {
						if m := workload.RunWarm(ctx, e, db.Class, q); m.Err != nil {
							readErrs.Add(1)
						}
						reads.Add(1)
					}
				}(mix[i%len(mix)])
			}
			runUpdates(t, ctx, e, db.Class, updates)
			stop.Store(true)
			wg.Wait()
			if n := readErrs.Load(); n > 0 {
				t.Fatalf("%d/%d reader queries failed during updates", n, reads.Load())
			}
			if reads.Load() == 0 {
				t.Fatal("readers never ran")
			}
		})
	}
}

// TestSnapshotGCStress drives the three MVCC actors at once on every
// engine: snapshot readers pinning commit epochs, the journal-backed
// update path committing through mutation brackets, and version GC
// forced at the highest possible rate — a goroutine hammering
// Pager().GC() beside the inline pruning of every release and commit
// (there is no background collector to wait for). Under -race
// (the CI race job) it pins the pin/capture/prune synchronization;
// under plain `go test` it still checks that readers never fail
// mid-update and that GC reclaims every version once the pins drain.
func TestSnapshotGCStress(t *testing.T) {
	const readers = 3
	const updates = 16
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
			defer e.Close()
			p := e.(interface{ Pager() *pager.Pager }).Pager()
			var mix []core.QueryID
			for _, q := range []core.QueryID{core.Q1, core.Q2, core.Q5, core.Q6} {
				if workload.RunWarm(ctx, e, db.Class, q).Err == nil {
					mix = append(mix, q)
				}
			}
			if len(mix) == 0 {
				t.Fatal("engine defines none of the reader queries")
			}
			var stop atomic.Bool
			var readErrs, reads atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < readers; i++ {
				wg.Add(1)
				go func(q core.QueryID) {
					defer wg.Done()
					for ok := true; ok; ok = !stop.Load() {
						if m := workload.RunWarm(ctx, e, db.Class, q); m.Err != nil {
							readErrs.Add(1)
						}
						reads.Add(1)
					}
				}(mix[i%len(mix)])
			}
			// The GC hammer: every pass prunes whatever the lowest pin
			// (or the committed epoch, mid-bracket) allows.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					p.GC()
					runtime.Gosched()
				}
			}()
			runUpdates(t, ctx, e, db.Class, updates)
			stop.Store(true)
			wg.Wait()
			if n := readErrs.Load(); n > 0 {
				t.Fatalf("%d/%d reader queries failed during updates+GC", n, reads.Load())
			}
			// All pins drained and no bracket open: one more pass must
			// leave nothing for readers to need.
			p.GC()
			if n := p.PinnedSnapshots(); n != 0 {
				t.Fatalf("%d snapshots still pinned after drain", n)
			}
			if n := p.LiveVersions(); n != 0 {
				t.Fatalf("%d page versions survive with no pins and no open bracket", n)
			}
		})
	}
}

// runUpdates issues n updates, cycling U1, U2, U3, through one
// workload.Updater, and after each checks that every document an
// acknowledged update touched reads as it left it (visible after U1 and
// U2, gone after U3); then it deletes what is left.
func runUpdates(t *testing.T, ctx context.Context, e core.Engine, class core.Class, n int) {
	t.Helper()
	u, err := workload.NewUpdater(class, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		op := workload.UpdateOps[i%len(workload.UpdateOps)]
		if _, _, err := u.Apply(ctx, e, op); err != nil {
			t.Errorf("%s #%d: %v", op, i, err)
		}
		if err := u.Check(ctx, e); err != nil {
			t.Errorf("after %s #%d: %v", op, i, err)
		}
	}
	if err := u.Finish(ctx, e); err != nil {
		t.Error(err)
	}
}
