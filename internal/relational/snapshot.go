package relational

import (
	"context"
	"fmt"

	"xbench/internal/btree"
	"xbench/internal/pager"
)

// Snapshot support: an epoch-pinned, immutable clone of a DB whose read
// operators serve pages as of one commit epoch (DESIGN.md §15). The
// shredding engines publish one snapshot DB per committed update; query
// execution runs against it with no table latch and no engine write
// lock, while the writer keeps mutating the live DB.

// tableSnap freezes a table's read state: the heap extent and the index
// set as of one commit epoch.
type tableSnap struct {
	heap    pager.HeapView
	indexes map[string]*btree.TreeView
}

// ErrSnapshotWrite is returned by mutating operations on a snapshot
// table; snapshots are read-only by construction.
var ErrSnapshotWrite = fmt.Errorf("relational: write to snapshot table")

// Snapshot clones the database as an immutable view at the given commit
// epoch. It must be called from the writer (or under its exclusion) at a
// commit boundary — the live tables' in-memory extents then exactly
// describe the pages ReadAt serves at that epoch. The dirty heap tails
// are flushed on the way (pager.Heap.View): this is the flush of the
// engines' commit, which syncs after it. Readers of the snapshot must
// hold a pager.Snap pinned at the epoch for as long as they use it.
func (db *DB) Snapshot(epoch uint64) (*DB, error) {
	s := *db // the pager and the bound counters; the tables become views
	s.tables = make(map[string]*Table, len(db.tables))
	for name, t := range db.tables {
		st, err := t.snapshot(&s, epoch)
		if err != nil {
			return nil, err
		}
		s.tables[name] = st
	}
	return &s, nil
}

// snapshot clones one table in frozen mode.
func (t *Table) snapshot(db *DB, epoch uint64) (*Table, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	hv, err := t.heap.View(epoch)
	if err != nil {
		return nil, fmt.Errorf("relational: snapshot %s: %w", t.Name, err)
	}
	sn := &tableSnap{heap: hv, indexes: make(map[string]*btree.TreeView, len(t.indexes))}
	for col, ix := range t.indexes {
		sn.indexes[col] = ix.ViewAt(epoch)
	}
	return &Table{
		Name:   t.Name,
		Cols:   t.Cols,
		db:     db,
		colIdx: t.colIdx,
		heap:   t.heap, // unused by reads in snap mode; kept for identity
		snap:   sn,
	}, nil
}

// scanRecords abstracts the heap scan over live vs snapshot mode.
func (t *Table) scanRecords(ctx context.Context, fn func(rid pager.RID, rec []byte) bool) error {
	if t.snap != nil {
		return t.snap.heap.Scan(ctx, fn)
	}
	return t.heap.Scan(ctx, fn)
}

// getRecord abstracts the heap point read over live vs snapshot mode.
func (t *Table) getRecord(ctx context.Context, rid pager.RID) ([]byte, error) {
	if t.snap != nil {
		return t.snap.heap.Get(ctx, rid)
	}
	return t.heap.Get(ctx, rid)
}
