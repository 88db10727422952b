package router_test

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"testing"

	"xbench/internal/bench"
	"xbench/internal/client"
	"xbench/internal/core"
	"xbench/internal/gen"
	"xbench/internal/plan"
	"xbench/internal/router"
	"xbench/internal/server"
	"xbench/internal/workload"
)

// TestRoutedEqualsSingle serves each real engine's DC/MD and TC/MD Small
// databases (seed 7) as three loopback shards, each its ring partition,
// and runs every query one document answers (plan.OneDocument) through the
// router at ids on several shards. Each answer must be the unsharded
// engine's under workload.Check(ModeFor), and exactly one shard must have
// served it: one routed leg, no scatter.
func TestRoutedEqualsSingle(t *testing.T) {
	ctx := context.Background()
	const shards = 3
	ring := router.NewRing(shards, 0)
	for _, class := range []core.Class{core.DCMD, core.TCMD} {
		db, err := gen.Config{Seed: 7}.Generate(class, core.Small)
		if err != nil {
			t.Fatal(err)
		}
		var routed []core.QueryID
		for q := core.Q1; q <= core.Q20; q++ {
			if _, ok := plan.OneDocument(class, q); ok {
				routed = append(routed, q)
			}
		}
		for _, name := range bench.EngineNames {
			t.Run(class.Code()+"/"+name, func(t *testing.T) {
				single := bench.NewEngine(name)
				defer single.Close()
				if _, _, err := workload.LoadAndIndex(ctx, single, db); err != nil {
					t.Fatal(err)
				}
				specs := make([]router.Shard, shards)
				for i := range specs {
					e := bench.NewEngine(name)
					if _, _, err := workload.LoadAndIndex(ctx, e, ring.Partition(db, i)); err != nil {
						t.Fatal(err)
					}
					srv := server.New(e, server.Config{})
					if err := srv.Start(); err != nil {
						t.Fatal(err)
					}
					defer srv.Close()
					specs[i] = router.Shard{Primary: srv.Addr().String()}
				}
				r, err := router.Dial(specs, router.Config{})
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()

				owners, items := map[int]bool{}, 0
				for n := 1; n <= 6; n++ {
					p := workload.Params(class)
					if class == core.DCMD {
						p["X"], p["DOC"] = "O"+strconv.Itoa(n), "order"+strconv.Itoa(n)+".xml"
					} else {
						p["X"], p["DOC"] = "a"+strconv.Itoa(n), "article"+strconv.Itoa(n)+".xml"
					}
					owners[ring.Owner(p["DOC"])] = true
					for _, q := range routed {
						want, werr := single.Execute(ctx, q, p)
						before := r.Metrics().Snapshot()
						got, err := r.Execute(ctx, q, p)
						switch {
						case core.IsNotAnswered(werr):
							// An engine without a translation declines
							// the query, routed or not.
							if !core.IsNotAnswered(err) {
								t.Errorf("%s X=%s: routed %v, %v; the unsharded engine declines: %v", q, p["X"], got.Items, err, werr)
							}
						case werr != nil:
							t.Fatalf("%s X=%s unsharded: %v", q, p["X"], werr)
						case err != nil:
							t.Fatalf("%s X=%s routed: %v", q, p["X"], err)
						default:
							items += len(want.Items)
							if err := workload.Check(workload.ModeFor(class, q, single.Name()), want, got); err != nil {
								t.Errorf("%s X=%s: routed answer differs from the unsharded one: %v", q, p["X"], err)
							}
						}
						d := r.Metrics().Snapshot().Delta(before)
						owner := ring.Owner(p["DOC"])
						for i := 0; i < shards; i++ {
							pfx := fmt.Sprintf("router.shard.%d.", i)
							routed, scatter := d.Get(pfx+"routed"), d.Get(pfx+"scatter")
							wantRouted := int64(0)
							if i == owner {
								wantRouted = 1
							}
							if routed != wantRouted || scatter != 0 {
								t.Errorf("%s X=%s: shard %d served %d routed and %d scatter legs; want one routed leg on shard %d alone", q, p["X"], i, routed, scatter, owner)
							}
						}
					}
				}
				if len(owners) < 2 || items == 0 {
					t.Fatalf("the bound ids live on %d shard(s) and answered %d items; bind others", len(owners), items)
				}
			})
		}
	}
}

// TestColdPageIOSameServedAndRouted loads each real engine with the DC/MD
// Small database (seed 7) and runs every defined query cold three ways:
// on the engine in process, through a loopback server, and through a
// one-shard router over that server. A served run's page I/O is the
// difference of two OpPageIO reads, not a figure the response carries,
// so each setup must measure the in-process PageIO and items exactly.
func TestColdPageIOSameServedAndRouted(t *testing.T) {
	ctx := context.Background()
	db, err := gen.Config{Seed: 7}.Generate(core.DCMD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range bench.EngineNames {
		t.Run(name, func(t *testing.T) {
			e := bench.NewEngine(name)
			defer e.Close()
			if _, _, err := workload.LoadAndIndex(ctx, e, db); err != nil {
				t.Fatal(err)
			}
			srv := server.New(e, server.Config{})
			if err := srv.Start(); err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			c, err := client.Dial(srv.Addr().String(), client.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			r, err := router.Dial([]router.Shard{{Primary: srv.Addr().String()}}, router.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()

			pages := int64(0)
			for _, q := range workload.QueryIDs(core.DCMD) {
				want := workload.RunCold(ctx, e, core.DCMD, q)
				if want.Err != nil && !core.IsNotAnswered(want.Err) {
					t.Fatalf("%s in process: %v", q, want.Err)
				}
				pages += want.PageIO
				for _, setup := range []struct {
					name string
					e    core.Engine
				}{{"served", c}, {"routed", r}} {
					got := workload.RunCold(ctx, setup.e, core.DCMD, q)
					if declined := core.IsNotAnswered(got.Err); declined != core.IsNotAnswered(want.Err) || got.Err != nil && !declined {
						t.Fatalf("%s %s: %v; in process: %v", q, setup.name, got.Err, want.Err)
					}
					if got.PageIO != want.PageIO || !slices.Equal(got.Result.Items, want.Result.Items) {
						t.Errorf("%s %s: %d items in %d page I/Os; in process %d items in %d",
							q, setup.name, got.Result.Count(), got.PageIO, want.Result.Count(), want.PageIO)
					}
				}
			}
			if pages == 0 {
				t.Fatal("no query read a page cold")
			}
		})
	}
}
