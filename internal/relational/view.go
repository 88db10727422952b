package relational

import (
	"context"

	"xbench/internal/btree"
	"xbench/internal/metrics"
	"xbench/internal/pager"
)

// DBView is the tables of a DB at one epoch: what the shredding engines
// publish per committed update (DESIGN.md §15) and a query reads with no
// latch of any kind, while the writer keeps mutating the DB.
type DBView struct {
	tables map[string]*TableView
	reg    *metrics.Registry
}

// Table returns a table's view by name, or nil.
func (v *DBView) Table(name string) *TableView { return v.tables[name] }

// Metrics returns the registry the views' operators count into.
func (v *DBView) Metrics() *metrics.Registry { return v.reg }

// TableView is one table at one epoch, and where every read operator of
// the package lives: an immutable value holding a heap view and the views
// of the indexes the table had when it was made.
type TableView struct {
	*schema
	heap    pager.HeapView
	indexes map[string]*btree.TreeView
	ops     *ops
}

// View freezes the database as of the given commit epoch. It must be
// called from the writer (or under its exclusion) at a commit boundary —
// the tables' in-memory extents then exactly describe the pages ReadAt
// serves at that epoch. Readers of the view must hold a pager.Snap pinned
// at the epoch for as long as they use it.
func (db *DB) View(epoch uint64) *DBView {
	v := &DBView{tables: make(map[string]*TableView, len(db.tables)), reg: db.ops.reg}
	for name, t := range db.tables {
		t.mu.RLock()
		v.tables[name] = t.viewOf(t.heap.View(epoch), epoch)
		t.mu.RUnlock()
	}
	return v
}

// Live is the table's own read surface: its heap's Live view and its
// indexes as they are now. It is the writer's:
// valid under the exclusion of Insert and DeleteWhere, until the next.
func (t *Table) Live() *TableView {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.viewOf(t.heap.Live(), pager.LiveEpoch)
}

// viewOf is the table over heap with its indexes at epoch; the caller
// holds the latch.
func (t *Table) viewOf(heap pager.HeapView, epoch uint64) *TableView {
	v := &TableView{schema: t.schema, heap: heap, ops: t.db.ops,
		indexes: make(map[string]*btree.TreeView, len(t.indexes))}
	for col, ix := range t.indexes {
		v.indexes[col] = ix.ViewAt(epoch)
	}
	return v
}

// Count returns the number of rows.
func (v *TableView) Count() int { return v.heap.Count() }

// HeapPages returns the page count of the table's record heap, the
// planner's sequential-scan cost.
func (v *TableView) HeapPages() int64 { return v.heap.Pages() }

// IndexHeight returns the btree height of col's index, 0 when the
// column is unindexed.
func (v *TableView) IndexHeight(col string) int {
	if ix := v.indexes[col]; ix != nil {
		return ix.Height()
	}
	return 0
}

// Scan visits all rows in address order (a full table scan: every heap
// page is read), handing fn each record where it lies. Returning false
// stops early. Cancellation via ctx is honored at page-fetch granularity.
func (v *TableView) Scan(ctx context.Context, fn func(Rec) bool) error {
	v.ops.cScan.Inc()
	defer v.ops.reg.StartSpan(metrics.PhaseScan).End()
	var visited int64
	err := v.heap.Scan(ctx, func(_ pager.RID, rec []byte) bool {
		visited++
		return fn(rec)
	})
	v.ops.cScanRow.Add(visited)
	return err
}

// LookupEq returns copies of the records where col == val, only the first
// limit of them when limit > 0 (the planner's limit pushdown, positional
// [1] access). byIndex is the plan's access path: a probe of col's index,
// or — false, and for an unindexed column — the sequential filter of a
// plan whose cost model chose the scan.
func (v *TableView) LookupEq(ctx context.Context, col, val string, byIndex bool, limit int) ([]Rec, error) {
	var rows []Rec
	keep := func(_ pager.RID, r Rec) bool {
		rows = append(rows, r.Clone())
		return limit <= 0 || len(rows) < limit
	}
	ix := v.indexes[col]
	if !byIndex || ix == nil {
		v.ops.cScan.Inc()
		defer v.ops.reg.StartSpan(metrics.PhaseScan).End()
		visited, err := v.eachEq(ctx, col, val, nil, false, keep)
		v.ops.cScanRow.Add(visited)
		return rows, err
	}
	v.ops.cProbe.Inc()
	sp := v.ops.reg.StartSpan(metrics.PhaseIndexProbe)
	hits, err := ix.Search(ctx, val)
	sp.End()
	if err != nil {
		return nil, err
	}
	want := len(hits)
	if limit > 0 {
		want = min(want, limit)
	}
	rows = make([]Rec, 0, want)
	_, err = v.eachEq(ctx, col, val, hits, true, keep)
	return rows, err
}

// eachEq is the one equality of the package — LookupEq by probe and by
// filter, DeleteWhere's victim search: it hands fn, where it lies, every
// row whose col equals val until fn returns false. The candidates are the
// records at hits when col's index was probed for val, every record of
// the heap otherwise, and the column is compared on the stored bytes: an
// index key stops at btree.MaxKey, so a probe also returns rows that only
// share the value's first 512 bytes. It counts nothing and opens no span
// (the victim search is uncounted) and returns the records a filter
// visited.
func (v *TableView) eachEq(ctx context.Context, col, val string, hits []uint64, probed bool,
	fn func(rid pager.RID, r Rec) bool) (visited int64, err error) {
	ci := v.Col(col)
	if !probed {
		err = v.heap.Scan(ctx, func(rid pager.RID, rec []byte) bool {
			visited++
			return string(Rec(rec).Col(ci)) != val || fn(rid, rec)
		})
		return visited, err
	}
	for _, h := range hits {
		rec, err := v.heap.Get(ctx, pager.RID(h), nil)
		if err != nil {
			return 0, err
		}
		if string(Rec(rec).Col(ci)) == val && !fn(pager.RID(h), rec) {
			break
		}
	}
	return 0, nil
}

// LookupRange returns copies of the records with lo <= col <= hi
// (Rec.Between), along byIndex as LookupEq. Index keys are truncated to
// btree.MaxKey, so a probe also returns rows that only share a key's
// prefix: the column is re-checked on the stored bytes before the record
// is copied.
func (v *TableView) LookupRange(ctx context.Context, col, lo, hi string, byIndex bool) ([]Rec, error) {
	ci := v.Col(col)
	var rows []Rec
	ix := v.indexes[col]
	if !byIndex || ix == nil {
		err := v.Scan(ctx, func(r Rec) bool {
			if r.Between(ci, lo, hi) {
				rows = append(rows, r.Clone())
			}
			return true
		})
		return rows, err
	}
	v.ops.cProbe.Inc()
	defer v.ops.reg.StartSpan(metrics.PhaseIndexProbe).End()
	var inner error
	err := ix.Range(ctx, lo, hi, func(_ string, h uint64) bool {
		rec, e := v.heap.Get(ctx, pager.RID(h), nil)
		if e != nil {
			inner = e
			return false
		}
		if Rec(rec).Between(ci, lo, hi) {
			rows = append(rows, Rec(rec).Clone())
		}
		return true
	})
	if inner != nil {
		return nil, inner
	}
	return rows, err
}
