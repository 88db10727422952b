package btree

import (
	"context"

	"xbench/internal/pager"
)

// TreeView is an immutable snapshot of a Tree as of a commit epoch: the
// root pointer, entry count and height frozen at view time, with node
// pages read through pager.ReadAt. A view takes no latch at all — a
// concurrent Insert into the live tree rewrites node pages, but the
// mutation bracket captures their pre-images, so the view's traversal
// stays structurally consistent. The reader must hold a pager.Snap
// pinned at the view's epoch for the view's lifetime.
type TreeView struct {
	p      *pager.Pager
	fid    pager.FileID
	root   uint32
	n      int
	height int
	epoch  uint64
	t      *Tree // metrics source
}

// ViewAt freezes the tree as of the given commit epoch. It must be
// called by the writer (or under its exclusion) at a commit boundary:
// the in-memory root/count/height then exactly describe the tree whose
// node pages ReadAt serves at that epoch.
func (t *Tree) ViewAt(epoch uint64) *TreeView {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return &TreeView{p: t.p, fid: t.fid, root: t.root, n: t.n, height: t.height, epoch: epoch, t: t}
}

// Len returns the entry count of the view.
func (v *TreeView) Len() int { return v.n }

// Height returns the tree height of the view.
func (v *TreeView) Height() int { return v.height }

// readPage fetches a node page as of the view's epoch.
func (v *TreeView) readPage(ctx context.Context, pageNo uint32) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v.t.cVisit.Inc()
	return v.p.ReadAt(v.fid, pageNo, v.epoch)
}

// Search returns all values stored under key as of the view's epoch.
func (v *TreeView) Search(ctx context.Context, key string) ([]uint64, error) {
	return search(ctx, v.readPage, v.root, key)
}

// Range visits entries with lo <= key <= hi in key order as of the
// view's epoch. Returning false stops the scan.
func (v *TreeView) Range(ctx context.Context, lo, hi string, fn func(key string, val uint64) bool) error {
	return rangeScan(ctx, v.readPage, v.root, lo, hi, stringKeys(fn))
}
