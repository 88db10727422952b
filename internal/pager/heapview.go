package pager

import (
	"context"
	"encoding/binary"
	"fmt"
)

// HeapView is an immutable snapshot of a Heap: the record extent frozen
// at view time, with every page read served as of a commit epoch
// (pager.ReadAt). A view never consults the heap's in-memory tail or
// mutable cursors, so it is safe to use from any goroutine while the
// owning engine's writer keeps inserting into, deleting from or
// truncating the live heap — as long as the reader holds a Snap pinned
// at the view's epoch (otherwise GC may reclaim the page versions the
// view depends on).
//
// Views are built by the writer at state-publish time (engines publish
// one per heap inside their snapshot state) and by tests.
type HeapView struct {
	p     *Pager
	fid   FileID
	end   uint64
	count int
	epoch uint64
	// tail is the owning heap's unflushed tail page (page tailNo), carried
	// only by the view the live heap reads itself through (Heap.Live);
	// View flushes first, so a published view never has one.
	tail   []byte
	tailNo uint32
}

// View freezes the heap's current extent as of the given commit epoch.
// A buffered-but-unflushed tail page would be invisible to the pager, so
// View flushes it first — a dirty one only. That is the commit's flush:
// the engines freeze their stores once per mutation and sync after it
// (engbase.Base.publish), so a heap the mutation never touched writes
// nothing.
func (h *Heap) View(epoch uint64) (HeapView, error) {
	if h.tailDirty {
		if err := h.Flush(); err != nil {
			return HeapView{}, err
		}
	}
	return HeapView{p: h.p, fid: h.fid, end: h.end, count: h.count, epoch: epoch}, nil
}

// Count returns the number of records in the view.
func (v HeapView) Count() int { return v.count }

// Pages returns the page count of the view's extent — the scan cost the
// planner sees for this snapshot.
func (v HeapView) Pages() int64 {
	if v.end == 0 {
		return 0
	}
	return int64((v.end + PageSize - 1) / PageSize)
}

// readAt fills buf starting at offset, reading pages as of the view's
// epoch (and the unflushed tail from memory, for the live heap's own
// view). The context is checked before each page fetch — this is the
// page-fetch granularity at which query cancellation is honored.
func (v HeapView) readAt(ctx context.Context, buf []byte, off uint64) error {
	for len(buf) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		pageNo := uint32(off / PageSize)
		pg := v.tail
		if pg == nil || pageNo != v.tailNo {
			var err error
			if pg, err = v.p.ReadAt(v.fid, pageNo, v.epoch); err != nil {
				return err
			}
		}
		n := copy(buf, pg[off%PageSize:])
		if n == 0 {
			return fmt.Errorf("pager: heap read stalled at offset %d", off)
		}
		buf = buf[n:]
		off += uint64(n)
	}
	return nil
}

// prefix decodes the length prefix at off into the record's data length
// and its dead flag, checking both against the view's extent.
func (v HeapView) prefix(ctx context.Context, off uint64) (n uint32, dead bool, err error) {
	if off+4 > v.end {
		return 0, false, fmt.Errorf("pager: rid %d beyond heap end %d", off, v.end)
	}
	var pfx [4]byte
	if err := v.readAt(ctx, pfx[:], off); err != nil {
		return 0, false, err
	}
	word := binary.BigEndian.Uint32(pfx[:])
	n, dead = word&^deadBit, word&deadBit != 0
	if off+4+uint64(n) > v.end {
		return 0, false, fmt.Errorf("pager: rid %d has corrupt length %d", off, n)
	}
	return n, dead, nil
}

// Get returns a fresh copy of the record stored at rid, as of the view;
// a record deleted at or before the view's epoch is ErrDeleted.
func (v HeapView) Get(ctx context.Context, rid RID) ([]byte, error) {
	n, dead, err := v.prefix(ctx, uint64(rid))
	if err != nil {
		return nil, err
	}
	if dead {
		return nil, fmt.Errorf("pager: rid %d: %w", rid, ErrDeleted)
	}
	rec := make([]byte, n)
	if err := v.readAt(ctx, rec, uint64(rid)+4); err != nil {
		return nil, err
	}
	return rec, nil
}

// Scan visits every record live at the view's epoch in address order,
// stepping over dead ones without reading their bytes; returning false
// stops early. rec is one buffer reused from record to record: fn must
// copy what it keeps past its return.
func (v HeapView) Scan(ctx context.Context, fn func(rid RID, rec []byte) bool) error {
	var buf []byte
	for off := uint64(0); off < v.end; {
		n, dead, err := v.prefix(ctx, off)
		if err != nil {
			return err
		}
		if !dead {
			if uint32(cap(buf)) < n {
				buf = make([]byte, n)
			}
			rec := buf[:n]
			if err := v.readAt(ctx, rec, off+4); err != nil {
				return err
			}
			if !fn(RID(off), rec) {
				return nil
			}
		}
		off += 4 + uint64(n)
	}
	return nil
}
