// Package btree implements a disk-oriented B+tree over the simulated pager:
// fixed-size node pages, variable-length string keys, duplicate keys
// allowed, uint64 values (heap RIDs). It backs both the value indexes of
// paper Table 3 and the primary/foreign-key indexes the relational engines
// create during bulk loading.
//
// The paper's workload is load-then-query; the U1-U3 update workload adds
// Delete of one exact (key, value) pair. Deletion never merges or
// rebalances: a leaf may shrink to empty and stays in the chain, which
// suits document-granular churn where the next insert refills it.
//
// Concurrency: Search and Range take a shared latch, so any number of
// readers traverse in parallel; Insert, Delete and Sync take it
// exclusive. The
// root pointer, entry count and height only change under the exclusive
// latch. Node pages themselves are protected by the pager's own latch.
package btree

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"xbench/internal/metrics"
	"xbench/internal/pager"
)

// MaxKey is the maximum indexed key length; longer keys are truncated
// (DB2 and SQL Server impose similar index key limits, see paper §3.2.2 on
// why long text columns cannot be indexed).
const MaxKey = 512

// Tree is a B+tree handle. Concurrent Search/Range calls are safe;
// Insert, Delete and Sync exclude them.
type Tree struct {
	mu     sync.RWMutex
	p      *pager.Pager
	fid    pager.FileID
	root   uint32
	n      int
	height int

	// Counters from the pager's metrics registry (nil-safe): node visits,
	// node splits, entries deleted, and the tree height as a high-water
	// gauge.
	cVisit  *metrics.Counter
	cSplit  *metrics.Counter
	cDelete *metrics.Counter
	cHeight *metrics.Counter
}

type node struct {
	leaf bool
	next uint32 // leaf chain; 0 = none (page 0 is a reserved header page)
	keys []string
	vals []uint64 // leaf only, parallel to keys
	kids []uint32 // internal only, len(keys)+1
}

// New creates an empty tree in a fresh pager file. Page 0 is reserved as a
// header page so that page number 0 can serve as the nil sentinel in the
// leaf chain.
func New(p *pager.Pager, name string) (*Tree, error) {
	t := &Tree{p: p, fid: p.Create(name), height: 1}
	t.bindMetrics()
	if _, err := p.Append(t.fid); err != nil { // reserved page 0
		return nil, err
	}
	no, err := p.Append(t.fid)
	if err != nil {
		return nil, err
	}
	t.root = no
	if err := t.writeNode(no, &node{leaf: true}); err != nil {
		return nil, err
	}
	t.cHeight.SetMax(int64(t.height))
	return t, nil
}

// bindMetrics caches the tree's counters from the pager's registry.
func (t *Tree) bindMetrics() {
	reg := t.p.Metrics()
	t.cVisit = reg.Counter("btree.visit")
	t.cSplit = reg.Counter("btree.split")
	t.cDelete = reg.Counter("btree.delete")
	t.cHeight = reg.Counter("btree.height")
}

// Len returns the number of stored entries.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.n
}

// FileID returns the pager file backing the tree.
func (t *Tree) FileID() pager.FileID { return t.fid }

// header page 0 layout: [4] magic "BTR1" [4] root page [8] entry count.
const headerMagic = 0x42545231

// Sync persists the tree header (root page number and entry count) to the
// reserved page 0 and forces every dirty node page to disk. A synced tree
// survives a crash: Open re-attaches to it after pager recovery.
func (t *Tree) Sync() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf [16]byte
	binary.BigEndian.PutUint32(buf[0:4], headerMagic)
	binary.BigEndian.PutUint32(buf[4:8], t.root)
	binary.BigEndian.PutUint64(buf[8:16], uint64(t.n))
	if err := t.p.Write(t.fid, 0, buf[:]); err != nil {
		return err
	}
	return t.p.Sync(t.fid)
}

// Open re-attaches to a tree previously persisted with Sync in the given
// pager file (e.g. after crash recovery replayed the WAL).
func Open(p *pager.Pager, fid pager.FileID) (*Tree, error) {
	t := &Tree{p: p, fid: fid}
	pg, err := p.Read(fid, 0)
	if err != nil {
		return nil, err
	}
	if binary.BigEndian.Uint32(pg[0:4]) != headerMagic {
		return nil, fmt.Errorf("btree: file %d has no synced tree header", fid)
	}
	t.root = binary.BigEndian.Uint32(pg[4:8])
	t.n = int(binary.BigEndian.Uint64(pg[8:16]))
	if t.root == 0 || t.root >= p.NumPages(fid) {
		return nil, fmt.Errorf("btree: file %d header has invalid root page %d", fid, t.root)
	}
	t.bindMetrics()
	// Recover the height by descending the leftmost spine.
	t.height = 1
	for no := t.root; ; t.height++ {
		nd, err := t.readNode(context.Background(), no)
		if err != nil {
			return nil, err
		}
		if nd.leaf {
			break
		}
		no = nd.kids[0]
	}
	t.cHeight.SetMax(int64(t.height))
	return t, nil
}

// Height returns the tree height in levels (1 = a lone leaf root).
func (t *Tree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.height
}

func trunc(key string) string {
	if len(key) > MaxKey {
		return key[:MaxKey]
	}
	return key
}

// Insert adds (key, val). Duplicate keys are allowed. Insert takes the
// exclusive latch: concurrent searches wait for the tree to be
// structurally consistent again.
func (t *Tree) Insert(key string, val uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	key = trunc(key)
	sepKey, newChild, split, err := t.insert(t.root, key, val)
	if err != nil {
		return err
	}
	if split {
		// Grow a new root.
		no, err := t.p.Append(t.fid)
		if err != nil {
			return err
		}
		root := &node{keys: []string{sepKey}, kids: []uint32{t.root, newChild}}
		if err := t.writeNode(no, root); err != nil {
			return err
		}
		t.root = no
		t.height++
		t.cHeight.SetMax(int64(t.height))
	}
	t.n++
	return nil
}

func (t *Tree) insert(pageNo uint32, key string, val uint64) (string, uint32, bool, error) {
	nd, err := t.readNode(context.Background(), pageNo)
	if err != nil {
		return "", 0, false, err
	}
	if nd.leaf {
		// Insert after the last equal key (stable for duplicates).
		i := sort.Search(len(nd.keys), func(i int) bool { return nd.keys[i] > key })
		nd.keys = append(nd.keys, "")
		copy(nd.keys[i+1:], nd.keys[i:])
		nd.keys[i] = key
		nd.vals = append(nd.vals, 0)
		copy(nd.vals[i+1:], nd.vals[i:])
		nd.vals[i] = val
		return t.finishInsert(pageNo, nd)
	}
	ci := sort.Search(len(nd.keys), func(i int) bool { return nd.keys[i] > key })
	sep, newChild, split, err := t.insert(nd.kids[ci], key, val)
	if err != nil {
		return "", 0, false, err
	}
	if !split {
		return "", 0, false, nil
	}
	nd.keys = append(nd.keys, "")
	copy(nd.keys[ci+1:], nd.keys[ci:])
	nd.keys[ci] = sep
	nd.kids = append(nd.kids, 0)
	copy(nd.kids[ci+2:], nd.kids[ci+1:])
	nd.kids[ci+1] = newChild
	return t.finishInsert(pageNo, nd)
}

// finishInsert writes nd back, splitting it first if it no longer fits.
func (t *Tree) finishInsert(pageNo uint32, nd *node) (string, uint32, bool, error) {
	if nd.size() <= pager.PageSize {
		return "", 0, false, t.writeNode(pageNo, nd)
	}
	t.cSplit.Inc()
	mid := len(nd.keys) / 2
	right := &node{leaf: nd.leaf}
	var sep string
	if nd.leaf {
		right.keys = append(right.keys, nd.keys[mid:]...)
		right.vals = append(right.vals, nd.vals[mid:]...)
		nd.keys = nd.keys[:mid]
		nd.vals = nd.vals[:mid]
		sep = right.keys[0]
		right.next = nd.next
	} else {
		sep = nd.keys[mid]
		right.keys = append(right.keys, nd.keys[mid+1:]...)
		right.kids = append(right.kids, nd.kids[mid+1:]...)
		nd.keys = nd.keys[:mid]
		nd.kids = nd.kids[:mid+1]
	}
	rightNo, err := t.p.Append(t.fid)
	if err != nil {
		return "", 0, false, err
	}
	if nd.leaf {
		nd.next = rightNo
	}
	if err := t.writeNode(rightNo, right); err != nil {
		return "", 0, false, err
	}
	if err := t.writeNode(pageNo, nd); err != nil {
		return "", 0, false, err
	}
	return sep, rightNo, true, nil
}

// ErrNotFound is returned by Delete when the tree does not hold the
// exact (key, val) pair.
var ErrNotFound = errors.New("btree: entry not found")

// Delete removes one entry equal to (key, val), the key truncated to
// MaxKey as Insert truncated it. It walks the leaf chain across the
// key's duplicates to find the value and rewrites only that leaf; the
// separators above it stay (they still bound the subtrees correctly).
// Inside a pager mutation bracket the leaf's pre-image is captured, so a
// TreeView pinned at an older epoch keeps seeing the entry.
func (t *Tree) Delete(key string, val uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	key = trunc(key)
	ctx := context.Background()
	pageNo, err := findLeaf(ctx, t.readNode, t.root, key)
	if err != nil {
		return err
	}
	for pageNo != 0 {
		nd, err := t.readNode(ctx, pageNo)
		if err != nil {
			return err
		}
		for i, k := range nd.keys {
			if k < key {
				continue
			}
			if k > key {
				return ErrNotFound
			}
			if nd.vals[i] == val {
				nd.keys = append(nd.keys[:i], nd.keys[i+1:]...)
				nd.vals = append(nd.vals[:i], nd.vals[i+1:]...)
				if err := t.writeNode(pageNo, nd); err != nil {
					return err
				}
				t.n--
				t.cDelete.Inc()
				return nil
			}
		}
		pageNo = nd.next
	}
	return ErrNotFound
}

// Search returns all values stored under key, in insertion order.
// Concurrent searches run in parallel; cancellation via ctx is honored
// at page-fetch granularity.
func (t *Tree) Search(ctx context.Context, key string) ([]uint64, error) {
	key = trunc(key)
	var out []uint64
	err := t.Range(ctx, key, key, func(_ string, v uint64) bool {
		out = append(out, v)
		return true
	})
	return out, err
}

// Range visits entries with lo <= key <= hi in key order. Returning false
// stops the scan. Concurrent ranges run in parallel under a shared
// latch; cancellation via ctx is honored at page-fetch granularity.
func (t *Tree) Range(ctx context.Context, lo, hi string, fn func(key string, val uint64) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return rangeScan(ctx, t.readNode, t.root, lo, hi, fn)
}

// findLeaf descends from root to the leftmost leaf that can contain key.
// Duplicates of a promoted separator may remain in the left sibling, so
// on an equal separator it goes left and callers walk the leaf chain
// forward.
func findLeaf(ctx context.Context, read func(context.Context, uint32) (*node, error),
	root uint32, key string) (uint32, error) {
	pageNo := root
	for {
		nd, err := read(ctx, pageNo)
		if err != nil {
			return 0, err
		}
		if nd.leaf {
			return pageNo, nil
		}
		ci := sort.Search(len(nd.keys), func(i int) bool { return nd.keys[i] >= key })
		pageNo = nd.kids[ci]
	}
}

// rangeScan is the shared range traversal: descend from root to the
// leftmost leaf that can contain lo, then walk the leaf chain. read
// abstracts the page fetch so the live Tree (pool reads under its shared
// latch) and a TreeView (epoch-pinned versioned reads, no latch) use the
// same logic.
func rangeScan(ctx context.Context, read func(context.Context, uint32) (*node, error),
	root uint32, lo, hi string, fn func(key string, val uint64) bool) error {
	lo, hi = trunc(lo), trunc(hi)
	pageNo, err := findLeaf(ctx, read, root, lo)
	if err != nil {
		return err
	}
	for pageNo != 0 {
		nd, err := read(ctx, pageNo)
		if err != nil {
			return err
		}
		for i, k := range nd.keys {
			if k < lo {
				continue
			}
			if k > hi {
				return nil
			}
			if !fn(k, nd.vals[i]) {
				return nil
			}
		}
		pageNo = nd.next
	}
	return nil
}

// node serialization:
//
//	[1]type [4]next [2]nkeys
//	leaf:     nkeys * ([2]klen [klen]key [8]val)
//	internal: [4]kid0 then nkeys * ([2]klen [klen]key [4]kid)
func (n *node) size() int {
	s := 1 + 4 + 2
	if n.leaf {
		for _, k := range n.keys {
			s += 2 + len(k) + 8
		}
	} else {
		s += 4
		for _, k := range n.keys {
			s += 2 + len(k) + 4
		}
	}
	return s
}

func (t *Tree) writeNode(pageNo uint32, n *node) error {
	buf := make([]byte, 0, n.size())
	if n.leaf {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
	}
	buf = binary.BigEndian.AppendUint32(buf, n.next)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(n.keys)))
	if n.leaf {
		for i, k := range n.keys {
			buf = binary.BigEndian.AppendUint16(buf, uint16(len(k)))
			buf = append(buf, k...)
			buf = binary.BigEndian.AppendUint64(buf, n.vals[i])
		}
	} else {
		buf = binary.BigEndian.AppendUint32(buf, n.kids[0])
		for i, k := range n.keys {
			buf = binary.BigEndian.AppendUint16(buf, uint16(len(k)))
			buf = append(buf, k...)
			buf = binary.BigEndian.AppendUint32(buf, n.kids[i+1])
		}
	}
	if len(buf) > pager.PageSize {
		return fmt.Errorf("btree: node overflow: %d bytes", len(buf))
	}
	return t.p.Write(t.fid, pageNo, buf)
}

func (t *Tree) readNode(ctx context.Context, pageNo uint32) (*node, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t.cVisit.Inc()
	pg, err := t.p.Read(t.fid, pageNo)
	if err != nil {
		return nil, err
	}
	return decodeNode(pg), nil
}

func decodeNode(pg []byte) *node {
	n := &node{leaf: pg[0] == 0}
	n.next = binary.BigEndian.Uint32(pg[1:5])
	nk := int(binary.BigEndian.Uint16(pg[5:7]))
	off := 7
	if n.leaf {
		n.keys = make([]string, nk)
		n.vals = make([]uint64, nk)
		for i := 0; i < nk; i++ {
			kl := int(binary.BigEndian.Uint16(pg[off : off+2]))
			off += 2
			n.keys[i] = string(pg[off : off+kl])
			off += kl
			n.vals[i] = binary.BigEndian.Uint64(pg[off : off+8])
			off += 8
		}
		return n
	}
	n.kids = make([]uint32, 1, nk+1)
	n.kids[0] = binary.BigEndian.Uint32(pg[off : off+4])
	off += 4
	n.keys = make([]string, nk)
	for i := 0; i < nk; i++ {
		kl := int(binary.BigEndian.Uint16(pg[off : off+2]))
		off += 2
		n.keys[i] = string(pg[off : off+kl])
		off += kl
		n.kids = append(n.kids, binary.BigEndian.Uint32(pg[off:off+4]))
		off += 4
	}
	return n
}
