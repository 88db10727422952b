package btree

import (
	"context"
	"encoding/binary"

	"xbench/internal/metrics"
	"xbench/internal/pager"
)

// TreeView is the read surface of a Tree, and the only one: the root
// pointer, entry count and height as they were when the view was made,
// with node pages read through pager.ReadAt at the view's epoch. A view
// is immutable and takes no latch at all. One frozen at a commit epoch
// (ViewAt) stays structurally consistent beside a concurrent Insert into
// the tree — the writer rewrites node pages, but the mutation bracket
// captures their pre-images — as long as the reader holds a pager.Snap
// pinned at the view's epoch for the view's lifetime. One at
// pager.LiveEpoch (Live) reads the current pages and is the writer's own.
type TreeView struct {
	state
	epoch uint64
}

// state is a tree at one moment: what a Tree's writers move and a view
// keeps a copy of.
type state struct {
	p      *pager.Pager
	fid    pager.FileID
	root   uint32
	n      int
	height int
	cVisit *metrics.Counter // node visits, from the pager's registry
}

// live is the tree as it is now; the caller holds the latch.
func (t *Tree) live() TreeView { return TreeView{t.state, pager.LiveEpoch} }

// ViewAt freezes the tree as of the given commit epoch. It must be
// called by the writer (or under its exclusion) at a commit boundary:
// the in-memory root/count/height then exactly describe the tree whose
// node pages ReadAt serves at that epoch.
func (t *Tree) ViewAt(epoch uint64) *TreeView {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return &TreeView{t.state, epoch}
}

// Live is the tree's own read surface: a view of it as it is now, with
// live (unversioned) page reads. It is the writer's: valid under the
// exclusion Insert and Delete need, and only until the next of them.
func (t *Tree) Live() *TreeView { return t.ViewAt(pager.LiveEpoch) }

// Len returns the entry count of the view.
func (v *TreeView) Len() int { return v.n }

// Height returns the tree height of the view in levels (1 = a lone leaf
// root).
func (v *TreeView) Height() int { return v.height }

// readPage fetches a node page as of the view's epoch. It checks ctx —
// cancellation is honored at page-fetch granularity — and counts the visit.
func (v *TreeView) readPage(ctx context.Context, pageNo uint32) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v.cVisit.Inc()
	return v.p.ReadAt(v.fid, pageNo, v.epoch)
}

// Search returns all values stored under key, in insertion order. The
// keys it passes over are never copied out of their pages.
func (v *TreeView) Search(ctx context.Context, key string) ([]uint64, error) {
	var out []uint64
	err := v.scan(ctx, key, key, func(_ []byte, val uint64) bool {
		out = append(out, val)
		return true
	})
	return out, err
}

// Range visits entries with lo <= key <= hi in key order. Returning false
// stops the scan; only here does a scanned key become a string.
func (v *TreeView) Range(ctx context.Context, lo, hi string, fn func(key string, val uint64) bool) error {
	return v.scan(ctx, lo, hi, func(k []byte, val uint64) bool { return fn(string(k), val) })
}

// findLeaf descends from the view's root to the leftmost leaf that can
// contain key. Duplicates of a promoted separator may remain in the left
// sibling, so on an equal separator it goes left and callers walk the
// leaf chain forward.
func (v *TreeView) findLeaf(ctx context.Context, key string) (uint32, error) {
	pageNo := v.root
	for {
		pg, err := v.readPage(ctx, pageNo)
		if err != nil {
			return 0, err
		}
		if isLeaf(pg) {
			return pageNo, nil
		}
		off, _ := seek(pg, key, true)
		pageNo = binary.BigEndian.Uint32(pg[off-innerPtr:])
	}
}

// scan is the one range traversal: descend to the leftmost leaf that can
// contain lo, then walk the leaf chain. The key handed to fn aliases the
// page and is only valid during the call.
func (v *TreeView) scan(ctx context.Context, lo, hi string, fn func(key []byte, val uint64) bool) error {
	lo, hi = trunc(lo), trunc(hi)
	pageNo, err := v.findLeaf(ctx, lo)
	if err != nil {
		return err
	}
	for pageNo != 0 {
		pg, err := v.readPage(ctx, pageNo)
		if err != nil {
			return err
		}
		n := nodeKeys(pg)
		for off, i := seek(pg, lo, true); i < n; i++ {
			k, p := cellKey(pg, off)
			if string(k) > hi {
				return nil
			}
			if !fn(k, binary.BigEndian.Uint64(pg[p:])) {
				return nil
			}
			off = p + leafPtr
		}
		pageNo = nodeNext(pg)
	}
	return nil
}
