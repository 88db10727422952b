package pager

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"xbench/internal/metrics"
)

// RID identifies a record in a Heap: the byte offset where its length
// prefix begins.
type RID uint64

// deadBit marks a deleted record: the high bit of the 4-byte length
// prefix. The low 31 bits keep the extent's data length, so a scan steps
// over a dead record exactly as it steps over a live one and deleting
// changes no sizes on disk.
const deadBit = 1 << 31

// ErrDeleted is returned by HeapView.Get (and Heap.Delete) for the RID
// of a record that has been deleted.
var ErrDeleted = errors.New("pager: record deleted")

// extent is a dead record available for reuse: n data bytes behind the
// 4-byte prefix at off.
type extent struct {
	off uint64
	n   uint32
}

// Heap is a record file over a paged file. Records are length-prefixed
// and may span pages, so whole XML documents and shredded rows use the
// same storage primitive. The heap keeps no page of its own: an insert
// writes its prefix and its bytes through Pager.Write straight into the
// pool's buffers — in place while the mutation bracket that appended the
// page is open — so the pool's write-backs are the heap's I/O. Sync
// forces the file's dirty pages to disk.
//
// Delete tombstones a record where it lies (deadBit in its prefix), and
// Insert has one path: it picks the place — the first dead extent that
// fits, else the end — and writes the record there, leaving a split
// extent's remainder as a smaller dead record with its own prefix, so a
// heap under delete/insert churn of like-sized records does not grow.
// Adjacent dead records are not merged. The free list lives in memory
// only: it is rebuilt the way every other volatile structure is, by
// reload plus journal replay, which repeats the same deletes.
//
// A Heap only mutates, as a btree.Tree does: Insert and Delete need
// external exclusion — the engines provide it with their write lock.
// Every read goes through a HeapView: View(epoch) for snapshot readers,
// Live for the writer's own.
type Heap struct {
	p   *Pager
	fid FileID

	end   uint64 // next append offset
	count int
	free  []extent // dead records, in the order they were deleted
	// tombstoned and reused count Deletes and the Inserts placed in a dead
	// extent: the pager's counters when the heap was created.
	tombstoned, reused *metrics.Counter
}

// NewHeap creates an empty heap in a fresh file, counting its tombstones
// and reuses in the pager's registry as it is now: a store creates its
// heaps at load, after any SetMetrics.
func NewHeap(p *Pager, name string) *Heap {
	h := &Heap{p: p, fid: p.Create(name)}
	p.mu.RLock()
	h.tombstoned, h.reused = p.cHeapDead, p.cHeapReuse
	p.mu.RUnlock()
	return h
}

// Count returns the number of live records.
func (h *Heap) Count() int { return h.count }

// Bytes returns the total size of record data including prefixes, dead
// records included.
func (h *Heap) Bytes() uint64 { return h.end }

// Insert stores a record and returns its RID: in the first dead extent it
// fits — exactly, or with at least the 4 bytes a dead prefix for the
// remainder needs — else appended at the end.
func (h *Heap) Insert(rec []byte) (RID, error) {
	if uint64(len(rec)) >= deadBit {
		return 0, fmt.Errorf("pager: record of %d bytes exceeds the heap's record limit", len(rec))
	}
	need := uint32(len(rec))
	off := h.end
	i := slices.IndexFunc(h.free, func(ex extent) bool { return ex.n == need || ex.n >= need+4 })
	if i >= 0 {
		off = h.free[i].off
	}
	if err := h.writePrefix(need, off); err != nil {
		return 0, err
	}
	if err := h.write(rec, off+4); err != nil {
		return 0, err
	}
	if i >= 0 {
		if ex := h.free[i]; ex.n == need {
			h.free = slices.Delete(h.free, i, i+1)
		} else {
			rest := extent{off: ex.off + 4 + uint64(need), n: ex.n - need - 4}
			if err := h.writePrefix(deadBit|rest.n, rest.off); err != nil {
				return 0, err
			}
			h.free[i] = rest
		}
		h.reused.Inc()
	}
	h.count++
	return RID(off), nil
}

// Delete tombstones the record at rid; its bytes stay where they are
// until an insert reuses the extent.
func (h *Heap) Delete(ctx context.Context, rid RID) error {
	r := heapReader{v: h.Live()}
	n, dead, err := r.prefix(ctx, uint64(rid))
	if err != nil {
		return err
	}
	if dead {
		return fmt.Errorf("pager: rid %d: %w", rid, ErrDeleted)
	}
	if err := h.writePrefix(deadBit|n, uint64(rid)); err != nil {
		return err
	}
	h.free = append(h.free, extent{off: uint64(rid), n: n})
	h.count--
	h.tombstoned.Inc()
	return nil
}

// writePrefix writes the 4-byte prefix word — a data length, with deadBit
// for a dead record — at off.
func (h *Heap) writePrefix(word uint32, off uint64) error {
	var pfx [4]byte
	binary.BigEndian.PutUint32(pfx[:], word)
	return h.write(pfx[:], off)
}

// write patches b in at off, page by page, through Pager.Write: in place
// while the open bracket owns a page, else into a copy whose pre-image
// the bracket captures for pinned snapshots. Reaching the end on a
// page boundary appends the next page, and writing past the end extends
// the heap.
func (h *Heap) write(b []byte, off uint64) error {
	for len(b) > 0 {
		po := int(off % PageSize)
		if off == h.end && po == 0 {
			if _, err := h.p.Append(h.fid); err != nil {
				return err
			}
		}
		n := min(len(b), PageSize-po)
		if err := h.p.Write(h.fid, uint32(off/PageSize), po, b[:n]); err != nil {
			return err
		}
		b = b[n:]
		off += uint64(n)
		h.end = max(h.end, off)
	}
	return nil
}

// Sync forces every dirty page of the heap's file to disk (the per-file
// fsync of a multi-document load).
func (h *Heap) Sync() error { return h.p.Sync(h.fid) }

// Live is the writer's read surface: a view of the heap's whole extent
// with live (unversioned) page reads, the tail page included. Delete reads
// through it too, so the heap and its published views share one record
// reader. It is valid under the exclusion Insert and Delete need, and
// only until the next of them.
func (h *Heap) Live() HeapView {
	return HeapView{p: h.p, fid: h.fid, end: h.end, count: h.count, epoch: LiveEpoch}
}
