package engbase_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"xbench/internal/core"
	"xbench/internal/engines/engbase"
	"xbench/internal/engines/native"
	"xbench/internal/engines/rdbms"
	"xbench/internal/gen"
	"xbench/internal/metrics"
	"xbench/internal/pager"
	"xbench/internal/workload"
)

// engine is what every engine built on engbase.Base offers.
type engine interface {
	core.Engine
	core.Explainer
	Pager() *pager.Pager
}

var engines = []struct {
	name string
	mk   func() engine
}{
	{"X-Hive", func() engine { return native.New(64) }},
	{"Xcolumn", func() engine { return rdbms.New(rdbms.Xcolumn, 64, 0) }},
	{"Xcollection", func() engine { return rdbms.New(rdbms.Xcollection, 64, 0) }},
	{"SQL Server", func() engine { return rdbms.New(rdbms.SQLServer, 64, 0) }},
}

func tinyDB(t *testing.T) *core.Database {
	t.Helper()
	db, err := gen.Config{Orders: 20}.Generate(core.DCMD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// broken is db with a malformed document in the middle.
func broken(db *core.Database) *core.Database {
	b := *db
	b.Docs = append([]core.Doc(nil), db.Docs...)
	b.Docs[len(b.Docs)/2] = core.Doc{Name: "bad.xml", Data: []byte("<open>no close")}
	return &b
}

// footprint is what a refused operation must leave alone: the page I/O
// and the commit epoch.
type footprint struct {
	pageIO int64
	epoch  uint64
}

func footprintOf(e engine) footprint {
	return footprint{pageIO: e.PageIO(), epoch: e.Pager().SnapshotEpoch()}
}

// wantEmpty fails unless every file of e's pager is empty.
func wantEmpty(t *testing.T, e engine) {
	t.Helper()
	p := e.Pager()
	for fid := pager.FileID(0); p.FileName(fid) != ""; fid++ {
		if n := p.NumPages(fid); n != 0 {
			t.Errorf("file %q still holds %d pages", p.FileName(fid), n)
		}
	}
}

// TestEngineContract is the lifecycle every engine gets from
// engbase.Base, checked on each of them: the not-loaded rule, load
// atomicity, refused updates that leave no trace, one commit epoch per
// applied update, idempotent Close, snapshot reads by default — and, on
// a fake store whose hooks can fail and park, the one failure rule
// (whatever fails between the bracket opening and the commit stops the
// engine; a cancellation that late does not fail anything) and that
// nothing on the read path waits for a writer.
func TestEngineContract(t *testing.T) {
	ctx := context.Background()
	db := tinyDB(t)
	_, unit := workload.UpdateDoc(core.DCMD, 1, 0)
	for _, tc := range engines {
		t.Run(tc.name, func(t *testing.T) {
			// Nothing runs against, and nothing is written to, a store that
			// is not loaded — whichever way it came to be so.
			for _, state := range []struct {
				name string
				make func(t *testing.T) engine
			}{
				{"never loaded", func(*testing.T) engine { return tc.mk() }},
				{"after a failed Load", func(t *testing.T) engine {
					e := tc.mk()
					if _, err := e.Load(ctx, broken(db)); err == nil {
						t.Fatal("load of a malformed database succeeded")
					}
					return e
				}},
				{"after Close", func(t *testing.T) engine {
					e := tc.mk()
					if _, err := e.Load(ctx, db); err != nil {
						t.Fatal(err)
					}
					if err := e.Close(); err != nil {
						t.Fatal(err)
					}
					return e
				}},
			} {
				t.Run(state.name, func(t *testing.T) {
					e := state.make(t)
					defer e.Close()
					before := footprintOf(e)
					for _, op := range []struct {
						name string
						run  func() error
					}{
						{"Execute", func() error { _, err := e.Execute(ctx, core.Q1, core.Params{"X": "O1"}); return err }},
						{"Explain", func() error { _, err := e.Explain(ctx, core.Q1, nil); return err }},
						{"BuildIndexes", func() error { return e.BuildIndexes(workload.Indexes(core.DCMD)) }},
						{"insert", func() error { return e.InsertDocument(ctx, "new.xml", unit) }},
						{"replace", func() error { return e.ReplaceDocument(ctx, "new.xml", unit) }},
						{"delete", func() error { return e.DeleteDocument(ctx, "new.xml") }},
					} {
						err := op.run()
						if err == nil {
							t.Errorf("%s succeeded", op.name)
						} else if msg := err.Error(); !strings.Contains(msg, tc.name) || !strings.Contains(msg, op.name) {
							t.Errorf("%s: error %q does not name the engine and the operation", op.name, msg)
						}
					}
					if after := footprintOf(e); after != before {
						t.Errorf("refused operations left a trace: %+v -> %+v", before, after)
					}
					if n := e.Pager().PinnedSnapshots(); n != 0 {
						t.Errorf("%d snapshots left pinned by the refused reads", n)
					}
				})
			}

			t.Run("failed Load leaves an empty, loadable engine", func(t *testing.T) {
				e := tc.mk()
				defer e.Close()
				if _, err := e.Load(ctx, broken(db)); err == nil {
					t.Fatal("load of a malformed database succeeded")
				}
				wantEmpty(t, e)
				st, err := e.Load(ctx, db)
				if err != nil {
					t.Fatal(err)
				}
				if st.Documents != len(db.Docs) {
					t.Fatalf("reload stored %d/%d documents", st.Documents, len(db.Docs))
				}
				if res, err := e.Execute(ctx, core.Q1, core.Params{"X": "O1"}); err != nil || len(res.Items) != 1 {
					t.Fatalf("Q1 after the reload = %v, %v", res.Items, err)
				}
			})

			t.Run("updates", func(t *testing.T) {
				e := tc.mk()
				defer e.Close()
				if _, err := e.Load(ctx, db); err != nil {
					t.Fatal(err)
				}
				// Refused before the bracket opens: U1 of a stored name, U3
				// of a missing one. They do no page I/O at all.
				before := footprintOf(e)
				if err := e.InsertDocument(ctx, "order1.xml", unit); err == nil || !strings.Contains(err.Error(), "already exists") {
					t.Errorf("U1 of an existing name: %v", err)
				}
				if err := e.DeleteDocument(ctx, "no-such.xml"); err == nil || !strings.Contains(err.Error(), "not found") {
					t.Errorf("U3 of a missing name: %v", err)
				}
				if after := footprintOf(e); after != before {
					t.Errorf("refused updates left a trace: %+v -> %+v", before, after)
				}
				// Applied: one commit epoch each.
				for i, apply := range []func() error{
					func() error { return e.InsertDocument(ctx, "new.xml", unit) },
					func() error { return e.ReplaceDocument(ctx, "new.xml", unit) },
					func() error { return e.DeleteDocument(ctx, "new.xml") },
				} {
					if err := apply(); err != nil {
						t.Fatalf("U%d: %v", i+1, err)
					}
					if epoch := e.Pager().SnapshotEpoch(); epoch != before.epoch+uint64(i)+1 {
						t.Fatalf("epoch %d after U%d, want %d", epoch, i+1, before.epoch+uint64(i)+1)
					}
				}
			})

			t.Run("double Close", func(t *testing.T) {
				e := tc.mk()
				if _, err := e.Load(ctx, db); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ {
					if err := e.Close(); err != nil {
						t.Fatalf("Close #%d: %v", i+1, err)
					}
				}
			})

			t.Run("reads pin snapshots by default", func(t *testing.T) {
				e := tc.mk()
				defer e.Close()
				if _, err := e.Load(ctx, db); err != nil {
					t.Fatal(err)
				}
				pins := e.Pager().Metrics().Counter("pager.snap.pin")
				start := pins.Value()
				if _, err := e.Execute(ctx, core.Q1, core.Params{"X": "O1"}); err != nil {
					t.Fatal(err)
				}
				if pins.Value() == start {
					t.Error("Execute on a fresh engine pinned no snapshot")
				}
				if n := e.Pager().PinnedSnapshots(); n != 0 {
					t.Errorf("%d snapshots left pinned", n)
				}
			})
		})
	}

	// Nothing published means nothing to read — never the live store. A
	// Freeze that fails after the apply commits the epoch with no view:
	// reads, plans and further updates all get the not-loaded error until
	// a Load publishes again.
	t.Run("fake store/a failed Freeze leaves the not-loaded error, not the live store", func(t *testing.T) {
		b, c := newCell(t)
		mustLoad(t, b, 3)
		c.freezeErr = errors.New("freeze failed")
		if err := b.InsertDocument(ctx, "x.xml", []byte("<d/>")); !errors.Is(err, c.freezeErr) {
			t.Fatalf("U1 with a failing Freeze: %v", err)
		}
		c.freezeErr = nil
		for name, run := range map[string]func() error{
			"Execute": func() error { _, err := b.Execute(ctx, core.Q1, nil); return err },
			"Explain": func() error { _, err := b.Explain(ctx, core.Q1, nil); return err },
			"insert":  func() error { return b.InsertDocument(ctx, "y.xml", []byte("<d/>")) },
		} {
			if err := run(); err == nil || !strings.Contains(err.Error(), "cell: "+name+" before Load") {
				t.Errorf("%s after the failed Freeze: %v", name, err)
			}
		}
		if n := b.Pager().PinnedSnapshots(); n != 0 {
			t.Errorf("%d snapshots left pinned", n)
		}
		mustLoad(t, b, 5)
		if res, err := b.Execute(ctx, core.Q1, nil); err != nil || res.Items[0] != "5" {
			t.Fatalf("Execute after the reload = %v, %v", res.Items, err)
		}
	})

	// One failure rule: an update that fails anywhere between the bracket
	// opening and the commit — either apply hook, the sync — closes the
	// bracket with nothing published and stops the engine, like the failed
	// Freeze above.
	boom := errors.New("apply failed")
	for _, row := range []struct {
		name   string
		arm    func(c *cell)
		update func(b *engbase.Base[*cellView]) error
	}{
		{"ApplyDelete", func(c *cell) { c.deleteErr = boom },
			func(b *engbase.Base[*cellView]) error { return b.ReplaceDocument(ctx, "d0.xml", []byte("<d/>")) }},
		{"ApplyInsert", func(c *cell) { c.inInsert = func(context.Context) error { return boom } },
			func(b *engbase.Base[*cellView]) error { return b.InsertDocument(ctx, "x.xml", []byte("<d/>")) }},
	} {
		t.Run("fake store/a failed "+row.name+" stops the engine", func(t *testing.T) {
			b, c := newCell(t)
			mustLoad(t, b, 3)
			row.arm(c)
			if err := row.update(b); !errors.Is(err, boom) {
				t.Fatalf("update with a failing %s: %v", row.name, err)
			}
			c.inInsert, c.deleteErr = nil, nil
			wantStopped(t, b)
			mustLoad(t, b, 5)
			if res, err := b.Execute(ctx, core.Q1, nil); err != nil || res.Items[0] != "5" {
				t.Fatalf("Execute after the reload = %v, %v", res.Items, err)
			}
		})
	}

	// The sync fails when the disk does: crash the update at every disk
	// operation it makes. The fake's hooks touch the pool only, so every
	// crash lands in the sync's write-backs, and each must stop the engine.
	// A crashed pager stays down — its Load fails too — so what reloads is
	// the restart: a new engine.
	t.Run("fake store/a crash at each disk op stops it", func(t *testing.T) {
		crashes := 0
		for k := int64(0); ; k++ {
			b, _ := newCell(t)
			p := b.Pager()
			p.SetFaultPolicy(pager.FaultPolicy{}) // count disk ops
			mustLoad(t, b, 3)
			p.SetFaultPolicy(pager.FaultPolicy{CrashAfterOps: p.OpCount() + k})
			err := b.InsertDocument(ctx, "x.xml", []byte("<d/>"))
			if err == nil {
				break // the update outran the crash point: every op is covered
			}
			if !pager.IsCrash(err) {
				t.Fatalf("crash at op +%d: %v", k, err)
			}
			crashes++
			wantStopped(t, b)
			if _, err := b.Load(ctx, docs(5)); !pager.IsCrash(err) {
				t.Fatalf("crash at op +%d: Load on the crashed pager = %v, want the crash", k, err)
			}
			restarted, _ := newCell(t)
			mustLoad(t, restarted, 5)
			if res, err := restarted.Execute(ctx, core.Q1, nil); err != nil || res.Items[0] != "5" {
				t.Fatalf("crash at op +%d: Execute after the restart = %v, %v", k, res.Items, err)
			}
		}
		if crashes == 0 {
			t.Error("no crash point landed inside the update")
		}
	})

	// Once the bracket is open a deadline that expires must not stop the
	// apply: the hook's ctx is not the caller's, and the update commits.
	// Before the bracket a cancelled ctx refuses the update without a
	// trace.
	t.Run("fake store/a ctx cancelled mid-apply commits", func(t *testing.T) {
		b, c := newCell(t)
		mustLoad(t, b, 3)
		cctx, cancel := context.WithCancel(ctx)
		c.inInsert = func(hook context.Context) error { cancel(); return hook.Err() }
		if err := b.InsertDocument(cctx, "x.xml", []byte("<d/>")); err != nil {
			t.Fatalf("U1 cancelled inside ApplyInsert: %v", err)
		}
		if res, err := b.Execute(ctx, core.Q1, nil); err != nil || res.Items[0] != "4" {
			t.Fatalf("Execute after the commit = %v, %v", res.Items, err)
		}
		c.inInsert = nil
		committed := b.Pager().SnapshotEpoch()
		if err := b.InsertDocument(cctx, "y.xml", []byte("<d/>")); !errors.Is(err, context.Canceled) {
			t.Fatalf("U1 under an already cancelled ctx: %v", err)
		}
		if epoch := b.Pager().SnapshotEpoch(); epoch != committed {
			t.Fatalf("the refused update moved the epoch %d -> %d", committed, epoch)
		}
	})

	// No latch anywhere on the read path: with a writer stopped inside
	// ApplyInsert — latch held, page already rewritten — Execute and
	// Explain still answer, from the view published before it began.
	t.Run("fake store/reads answer from the last published view while a writer is parked", func(t *testing.T) {
		b, c := newCell(t)
		mustLoad(t, b, 3)
		c.parked, c.resume = make(chan struct{}), make(chan struct{})
		written := make(chan error, 1)
		go func() { written <- b.InsertDocument(ctx, "x.xml", []byte("<d/>")) }()
		<-c.parked

		type answer struct {
			items []string
			plan  *core.PlanNode
			err   error
		}
		read := make(chan answer, 1)
		go func() {
			res, err := b.Execute(ctx, core.Q1, nil)
			if err != nil {
				read <- answer{err: err}
				return
			}
			node, err := b.Explain(ctx, core.Q1, nil)
			read <- answer{res.Items, node, err}
		}()
		select {
		case a := <-read:
			if a.err != nil || a.items[0] != "3" || a.plan == nil {
				t.Errorf("reads beside the parked writer = %v, %v, %v; want the 3 documents published before it", a.items, a.plan, a.err)
			}
		case <-time.After(10 * time.Second):
			t.Error("Execute/Explain waited for the parked writer")
		}
		close(c.resume)
		if err := <-written; err != nil {
			t.Fatal(err)
		}
		if res, err := b.Execute(ctx, core.Q1, nil); err != nil || res.Items[0] != "4" {
			t.Fatalf("Execute after the commit = %v, %v", res.Items, err)
		}
	})

	// Xcollection's decomposition row limit fires before the offending
	// document's first row is inserted (its rows are counted first); the
	// abort must still leave the tables empty and the engine loadable.
	t.Run("Xcollection/row-limit abort truncates", func(t *testing.T) {
		e := rdbms.New(rdbms.Xcollection, 64, 1) // every generated document decomposes into >1 row
		defer e.Close()
		if _, err := e.Load(ctx, db); !errors.Is(err, core.ErrUnsupported) {
			t.Fatalf("load under a 1-row limit: %v", err)
		}
		wantEmpty(t, e)
		fits := &core.Database{Class: core.DCMD, Size: core.Small, Docs: []core.Doc{
			{Name: "order1.xml", Data: []byte(`<order id="O1"><total>1.00</total><cc_xacts/><order_lines/></order>`)},
		}}
		if _, err := e.Load(ctx, fits); err != nil {
			t.Fatalf("load of a one-row document after the abort: %v", err)
		}
		if res, err := e.Execute(ctx, core.Q1, core.Params{"X": "O1"}); err != nil || len(res.Items) != 1 {
			t.Fatalf("Q1 after the reload = %v, %v", res.Items, err)
		}
	})
}

// wantStopped fails unless b is a stopped engine: every operation answers
// the not-loaded error, no snapshot is pinned, no page version retained.
func wantStopped(t *testing.T, b *engbase.Base[*cellView]) {
	t.Helper()
	ctx := context.Background()
	for name, run := range map[string]func() error{
		"Execute":      func() error { _, err := b.Execute(ctx, core.Q1, nil); return err },
		"Explain":      func() error { _, err := b.Explain(ctx, core.Q1, nil); return err },
		"BuildIndexes": func() error { return b.BuildIndexes(nil) },
		"insert":       func() error { return b.InsertDocument(ctx, "y.xml", []byte("<d/>")) },
		"replace":      func() error { return b.ReplaceDocument(ctx, "y.xml", []byte("<d/>")) },
		"delete":       func() error { return b.DeleteDocument(ctx, "d0.xml") },
	} {
		if err := run(); err == nil || !strings.Contains(err.Error(), "cell: "+name+" before Load") {
			t.Errorf("%s on the stopped engine: %v", name, err)
		}
	}
	if n := b.Pager().PinnedSnapshots(); n != 0 {
		t.Errorf("%d snapshots left pinned", n)
	}
	if n := b.Pager().LiveVersions(); n != 0 {
		t.Errorf("%d page versions retained with the bracket closed and no pin held", n)
	}
}

// TestPhasesPartitionExecute: the phases one query records are disjoint
// stretches of its Execute, on every engine — their times sum to no more
// than the call took, for a point query and for a scan — and planning is
// one of them everywhere, because Base does it.
func TestPhasesPartitionExecute(t *testing.T) {
	ctx := context.Background()
	db := tinyDB(t)
	for _, tc := range engines {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.mk()
			defer e.Close()
			if _, _, err := workload.LoadAndIndex(ctx, e, db); err != nil {
				t.Fatal(err)
			}
			reg := e.Pager().Metrics()
			params := core.Params{"X": "O1", "W2": "the"} // Q17's word is in 4 of the 20 orders
			for _, q := range []core.QueryID{core.Q1, core.Q17} {
				before := reg.Snapshot()
				start := time.Now()
				res, err := e.Execute(ctx, q, params)
				wall := time.Since(start)
				if err != nil || len(res.Items) == 0 {
					t.Fatalf("%s = %v, %v", q, res.Items, err)
				}
				phases := reg.Snapshot().Delta(before).Phases
				var sum time.Duration
				for _, d := range phases {
					sum += d
				}
				if sum > wall {
					t.Errorf("%s: phases sum to %v of a %v Execute, so some of them nest: %v", q, sum, wall, phases)
				}
				if phases[metrics.PhasePlan] == 0 {
					t.Errorf("%s: no plan phase recorded: %v", q, phases)
				}
			}
		})
	}
}
