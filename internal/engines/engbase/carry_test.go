package engbase_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"xbench/internal/core"
	"xbench/internal/gen"
	"xbench/internal/queries"
	"xbench/internal/stats"
	"xbench/internal/workload"
)

// TestCarriedEntriesAreTheFreshOnes: what a commit carries forward is what
// the new view would compute afresh. Seeded U1–U3 churn runs on DC/MD and
// TC/MD, on every engine, while two readers run the class's queries; after
// every commit the writer checks that each plan a read is served is
// plan.Plan's over the new view's statistics, field for field, and on
// X-Hive that each memoized record holds the bytes the new view reads at
// its RID (native.Engine.CheckMemo). Something must have been carried, or
// the test checks nothing.
func TestCarriedEntriesAreTheFreshOnes(t *testing.T) {
	ctx := context.Background()
	const commits = 60
	for _, class := range []core.Class{core.DCMD, core.TCMD} {
		db, err := gen.Config{Seed: 7}.Generate(class, core.Small)
		if err != nil {
			t.Fatal(err)
		}
		mix, params := workload.QueryIDs(class), workload.Params(class)
		for _, tc := range engines {
			t.Run(class.Code()+"/"+tc.name, func(t *testing.T) {
				e := tc.mk()
				defer e.Close()
				if _, _, err := workload.LoadAndIndex(ctx, e, db); err != nil {
					t.Fatal(err)
				}
				read := func(q core.QueryID) error {
					if _, err := e.Execute(ctx, q, params); err != nil && !errors.Is(err, core.ErrNoQuery) {
						return fmt.Errorf("%s: %w", q, err)
					}
					return nil
				}

				var stop atomic.Bool
				var wg sync.WaitGroup
				errs := make(chan error, 2)
				for r := range 2 {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						for i := r; !stop.Load(); i++ {
							if err := read(mix[i%len(mix)]); err != nil {
								errs <- err
								return
							}
						}
					}(r)
				}
				defer func() {
					stop.Store(true)
					wg.Wait()
					close(errs)
					for err := range errs {
						t.Error(err)
					}
				}()

				rng := stats.NewRNG(11)
				var live []int
				next := 0
				for i := 0; i < commits && !t.Failed(); i++ {
					var err error
					switch op := rng.Intn(3); {
					case op == 0 || len(live) == 0:
						name, doc := workload.UpdateDoc(class, next, 0)
						err = e.InsertDocument(ctx, name, doc)
						live, next = append(live, next), next+1
					case op == 1:
						name, doc := workload.UpdateDoc(class, live[len(live)-1], i)
						err = e.ReplaceDocument(ctx, name, doc)
					default:
						name, _ := workload.UpdateDoc(class, live[0], 0)
						err = e.DeleteDocument(ctx, name)
						live = live[1:]
					}
					if err != nil {
						t.Fatalf("commit %d: %v", i, err)
					}
					if checker, ok := e.(interface{ CheckMemo(context.Context) error }); ok {
						if err := checker.CheckMemo(ctx); err != nil {
							t.Fatalf("after commit %d: %v", i, err)
						}
					}
					for _, def := range queries.ForClass(class) {
						served, fresh, err := e.(plans).Plans(def.ID)
						if err != nil {
							t.Fatalf("after commit %d: %s: %v", i, def.ID, err)
						}
						if !reflect.DeepEqual(served, fresh) {
							t.Fatalf("after commit %d %s is served\n%v %s(cost %.1f, rows %.1f)\nthe planner builds\n%v %s(cost %.1f, rows %.1f)",
								i, def.ID, served.Access, served.IndexTarget, served.EstCost, served.EstRows, fresh.Access, fresh.IndexTarget, fresh.EstCost, fresh.EstRows)
						}
					}
					// Fill the memo whatever the readers got to.
					for _, q := range mix[:3] {
						if err := read(q); err != nil {
							t.Fatal(err)
						}
					}
				}
				reg := e.Pager().Metrics()
				if n := reg.Counter("plan.cell.carried").Value(); n == 0 {
					t.Error("no commit carried a plan")
				}
				if tc.name == "X-Hive" && reg.Counter("native.memo.hit").Value() == 0 {
					t.Error("no read was served from the memo")
				}
			})
		}
	}
}
