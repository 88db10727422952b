package pager

import (
	"context"
	"encoding/binary"
	"fmt"
)

// HeapView is an immutable snapshot of a Heap: the record extent frozen
// at view time, with every page read served as of a commit epoch
// (pager.ReadAt). A view never consults the heap's mutable cursors, so
// it is safe to use from any goroutine while the owning engine's writer
// keeps inserting into and deleting from the live heap — as
// long as the reader holds a Snap pinned at the view's epoch (otherwise
// GC may reclaim the page versions the view depends on).
//
// Views are built by the writer at state-publish time (engines publish
// one per heap inside their snapshot state) and by tests.
type HeapView struct {
	p     *Pager
	fid   FileID
	end   uint64
	count int
	epoch uint64
}

// View freezes the heap's current extent as of the given commit epoch.
// Every byte of it is already in the pool, so there is nothing to flush.
func (h *Heap) View(epoch uint64) HeapView {
	return HeapView{p: h.p, fid: h.fid, end: h.end, count: h.count, epoch: epoch}
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

// heapReader reads a view's bytes keeping the page it fetched last, so
// the prefix and the body of a record, and every record of a page, cost
// one fetch. The context is checked before each page fetch — the
// granularity at which query cancellation is honored.
type heapReader struct {
	v   HeapView
	pg  []byte // page no of the view, when non-nil
	no  uint32
	buf []byte // where a page-straddling span is assembled
}

// page returns page no as of the view's epoch.
func (r *heapReader) page(ctx context.Context, no uint32) ([]byte, error) {
	if r.pg != nil && r.no == no {
		return r.pg, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pg, err := r.v.p.ReadAt(r.v.fid, no, r.v.epoch)
	if err != nil {
		return nil, err
	}
	r.pg, r.no = pg, no
	return pg, nil
}

// span returns the n bytes at off: a capacity-capped sub-slice of the
// page image when they lie inside one page, else a copy assembled in
// r.buf, which the next straddling span overwrites.
func (r *heapReader) span(ctx context.Context, off uint64, n int) ([]byte, error) {
	if n == 0 {
		return []byte{}, nil // no page to fetch: the record may end the extent
	}
	if po := int(off % PageSize); po+n <= PageSize {
		pg, err := r.page(ctx, uint32(off/PageSize))
		if err != nil {
			return nil, err
		}
		if len(pg) < po+n {
			return nil, fmt.Errorf("pager: heap read stalled at offset %d", off)
		}
		return pg[po : po+n : po+n], nil
	}
	if cap(r.buf) < n {
		r.buf = make([]byte, n)
	}
	out := r.buf[:n]
	for rest := out; len(rest) > 0; {
		pg, err := r.page(ctx, uint32(off/PageSize))
		if err != nil {
			return nil, err
		}
		c := copy(rest, pg[off%PageSize:])
		if c == 0 {
			return nil, fmt.Errorf("pager: heap read stalled at offset %d", off)
		}
		rest = rest[c:]
		off += uint64(c)
	}
	return out, nil
}

// prefix decodes the length prefix at off into the record's data length
// and its dead flag, checking both against the view's extent.
func (r *heapReader) prefix(ctx context.Context, off uint64) (n uint32, dead bool, err error) {
	if off+4 > r.v.end {
		return 0, false, fmt.Errorf("pager: rid %d beyond heap end %d", off, r.v.end)
	}
	pfx, err := r.span(ctx, off, 4)
	if err != nil {
		return 0, false, err
	}
	word := binary.BigEndian.Uint32(pfx)
	n, dead = word&^deadBit, word&deadBit != 0
	if off+4+uint64(n) > r.v.end {
		return 0, false, fmt.Errorf("pager: rid %d has corrupt length %d", off, n)
	}
	return n, dead, nil
}

// Get returns the record stored at rid, as of the view; a record deleted
// at or before the view's epoch is ErrDeleted. A record that lies inside
// one page is returned where it lies — a sub-slice of the page image,
// read-only like everything Pager.Read hands out — and only a
// page-straddling one is copied: into a fresh buffer when buf is nil,
// else into *buf, grown when it is too short and kept there, so a caller
// done with each record before its next Get assembles them all in one
// buffer.
func (v HeapView) Get(ctx context.Context, rid RID, buf *[]byte) ([]byte, error) {
	r := heapReader{v: v}
	if buf != nil {
		r.buf = *buf
	}
	n, dead, err := r.prefix(ctx, uint64(rid))
	if err != nil {
		return nil, err
	}
	if dead {
		return nil, fmt.Errorf("pager: rid %d: %w", rid, ErrDeleted)
	}
	rec, err := r.span(ctx, uint64(rid)+4, int(n))
	if buf != nil {
		*buf = r.buf
	}
	return rec, err
}

// Scan visits every record live at the view's epoch in address order,
// stepping over dead ones without reading their bytes; returning false
// stops early. Each page is fetched once. rec is read-only and valid
// only until fn returns: it is the record where it lies in the page
// image, or, for a page-straddling record, one buffer reused from
// record to record — fn must copy what it keeps.
func (v HeapView) Scan(ctx context.Context, fn func(rid RID, rec []byte) bool) error {
	r := heapReader{v: v}
	for off := uint64(0); off < v.end; {
		n, dead, err := r.prefix(ctx, off)
		if err != nil {
			return err
		}
		if !dead {
			rec, err := r.span(ctx, off+4, int(n))
			if err != nil {
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
