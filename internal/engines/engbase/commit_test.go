package engbase_test

import (
	"context"
	"runtime"
	"testing"

	"xbench/internal/core"
	"xbench/internal/engines/native"
	"xbench/internal/engines/rdbms"
	"xbench/internal/gen"
	"xbench/internal/workload"
)

// TestCommitWritesWhatItDirtied pins the page I/O of the commit path at
// Small (generator seed 7, default pool): what LoadAndIndex costs, which
// is what the paper's Table 4 prices, and what each of U1-U3 costs as
// one workload.Updater call. An untimed second insert puts U2 on the
// newest of two update documents, the store the pins met while they
// were taken around a whole update harness call: then a U2 and a U3
// also paid an untimed pre-create of their target and every op a
// verifying Q1 (which reads no page from the warm pool), X-Hive 3/6/6
// on DC/MD, now 3/3/3. was is the same measurement at its worst. For
// the updates that is before Base.publish became the only sync (PR 22):
// the shredding engine synced once per hook — twice in a U2 — and every
// sync rewrote the clean tail page of each table the update never
// touched; now a commit writes the pages the
// update dirtied, once. For the load it is before PR 27, which moved it
// for two reasons, measured apart. Indexes are built from a sorted run
// that packs every leaf full (btree.InsertRun) instead of by one Insert
// per row in heap order: 720 -> 719 and 266 -> 264 on the shredding
// engines, nothing elsewhere at this size. And Heap.Flush writes only a
// dirty tail, so the per-document Sync of a load stopped rewriting the
// clean tail page of every table the document did not touch: 719 -> 692
// and 264 -> 241, and one page on X-Hive and Xcolumn. The same PR moved
// two updates: the first U1 on the DC/MD shredding engines 9 -> 11,
// because a leaf the build left full splits on its first insert, and
// Xcolumn's DC/MD U2 21 -> 20, whose doc index is built inside that
// update and came out a page smaller. Each update measured with its
// pre-create was then one page cheaper, and each U2/U3 two, than when the
// engines kept an update journal in their own pager: a commit wrote one
// journal page per update, and one more for the pre-create of a U2/U3
// (X-Hive 4/8/8 -> 3/6/6).
func TestCommitWritesWhatItDirtied(t *testing.T) {
	type io struct{ load, u1, u2, u3 int64 }
	ctx := context.Background()
	for _, tc := range []struct {
		class   core.Class
		name    string
		mk      func() engine
		was, is io
	}{
		{core.DCMD, "X-Hive", func() engine { return native.New(0) }, io{356, 4, 8, 8}, io{355, 3, 3, 3}},
		{core.DCMD, "Xcolumn", func() engine { return rdbms.New(rdbms.Xcolumn, 0, 0) }, io{381, 7, 23, 16}, io{380, 5, 14, 6}},
		{core.DCMD, "Xcollection", func() engine { return rdbms.New(rdbms.Xcollection, 0, 0) }, io{720, 14, 41, 28}, io{692, 10, 8, 8}},
		{core.DCMD, "SQL Server", func() engine { return rdbms.New(rdbms.SQLServer, 0, 0) }, io{720, 14, 41, 28}, io{692, 10, 8, 8}},
		{core.TCMD, "X-Hive", func() engine { return native.New(0) }, io{60, 4, 8, 8}, io{59, 3, 3, 3}},
		{core.TCMD, "Xcolumn", func() engine { return rdbms.New(rdbms.Xcolumn, 0, 0) }, io{62, 5, 18, 14}, io{61, 4, 11, 6}},
		{core.TCMD, "Xcollection", func() engine { return rdbms.New(rdbms.Xcollection, 0, 0) }, io{266, 14, 41, 28}, io{241, 10, 10, 10}},
		{core.TCMD, "SQL Server", func() engine { return rdbms.New(rdbms.SQLServer, 0, 0) }, io{266, 14, 41, 28}, io{241, 10, 10, 10}},
	} {
		t.Run(tc.class.String()+"/"+tc.name, func(t *testing.T) {
			db, err := gen.Config{Seed: 7}.Generate(tc.class, core.Small)
			if err != nil {
				t.Fatal(err)
			}
			e := tc.mk()
			defer e.Close()
			if _, _, err := workload.LoadAndIndex(ctx, e, db); err != nil {
				t.Fatal(err)
			}
			got := io{load: e.PageIO()}
			u, err := workload.NewUpdater(tc.class, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, step := range []struct {
				op   workload.UpdateOp
				cost *int64
			}{{workload.U1, &got.u1}, {workload.U1, new(int64)}, {workload.U2, &got.u2}, {workload.U3, &got.u3}} {
				before := e.PageIO()
				if _, _, err := u.Apply(ctx, e, step.op); err != nil {
					t.Fatalf("%s: %v", step.op, err)
				}
				*step.cost = e.PageIO() - before
			}
			if got != tc.is {
				t.Errorf("page I/O (load+index, U1, U2, U3) = %+v, pinned %+v", got, tc.is)
			}
			if tc.is.load > tc.was.load || tc.is.u1 > tc.was.u1 || tc.is.u2 > tc.was.u2 || tc.is.u3 > tc.was.u3 {
				t.Errorf("pinned %+v: neither the load nor an update may exceed %+v", tc.is, tc.was)
			}
		})
	}
}

// TestEngineStartsNoGoroutine: an engine is passive. Nothing it does —
// construction, load, index build, U1-U3, queries, Close — leaves a
// goroutine behind or needs one running: version GC is inline (pager
// package comment), there is no ticker to stop.
func TestEngineStartsNoGoroutine(t *testing.T) {
	ctx := context.Background()
	db := tinyDB(t)
	for _, tc := range engines {
		t.Run(tc.name, func(t *testing.T) {
			start := runtime.NumGoroutine()
			check := func(step string) {
				t.Helper()
				if n := runtime.NumGoroutine(); n > start {
					t.Fatalf("%d goroutines after %s, %d before the engine existed", n, step, start)
				}
			}
			e := tc.mk()
			check("New")
			if _, _, err := workload.LoadAndIndex(ctx, e, db); err != nil {
				t.Fatal(err)
			}
			check("Load and BuildIndexes")
			u, err := workload.NewUpdater(core.DCMD, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range workload.UpdateOps {
				if _, _, err := u.Apply(ctx, e, op); err != nil {
					t.Fatalf("%s: %v", op, err)
				}
				check(op.String())
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			check("Close")
		})
	}
}
