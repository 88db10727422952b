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
// An index over existing data is built through the same insert path as
// any other entry: the caller sorts (SortEntries) and hands the run to
// InsertRun, which appends at the right edge a leaf at a time; a node
// that overflows there splits behind its last cell, one anywhere else
// where its bytes halve (split). There is no second way to construct a
// tree and nothing to tune.
//
// Concurrency: a Tree only mutates — Insert, InsertRun, Delete and Sync
// take its latch exclusive, and the root pointer, entry count and height
// only change under it. Every read goes through a TreeView (view.go), an
// immutable value that takes no latch: frozen at a commit epoch for
// readers, at pager.LiveEpoch for the writer's own look-ups (Live).
// Node pages themselves are protected by the pager's own latch.
//
// Nodes are never decoded: search, range, insert and delete walk the
// cells of the page slice the pager returns and compare keys in place. A
// write builds the successor page in one fresh buffer and hands it to
// the pager (pager.WriteOwned); the page that was read is never modified,
// because the pool, the simulated disk and MVCC pre-images all alias it.
package btree

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"xbench/internal/metrics"
	"xbench/internal/pager"
)

// MaxKey is the maximum indexed key length; longer keys are truncated
// (DB2 and SQL Server impose similar index key limits, see paper §3.2.2 on
// why long text columns cannot be indexed).
const MaxKey = 512

// Tree is a B+tree handle, the writer's: Insert, Delete and Sync exclude
// each other and move its state; it is read through the views it hands
// out (ViewAt, Live).
type Tree struct {
	mu sync.RWMutex
	state

	// Counters from the pager's metrics registry (nil-safe), beside the
	// state's node visits: node splits, entries deleted, and the tree
	// height as a high-water gauge.
	cSplit  *metrics.Counter
	cDelete *metrics.Counter
	cHeight *metrics.Counter
}

// New creates an empty tree in a fresh pager file. Page 0 is reserved as a
// header page so that page number 0 can serve as the nil sentinel in the
// leaf chain.
func New(p *pager.Pager, name string) (*Tree, error) {
	t := &Tree{state: state{p: p, fid: p.Create(name), height: 1}}
	t.bindMetrics()
	if _, err := p.Append(t.fid); err != nil { // reserved page 0
		return nil, err
	}
	no, err := p.Append(t.fid)
	if err != nil {
		return nil, err
	}
	t.root = no
	if err := t.putNode(no, typeLeaf, 0, 0, nil); err != nil {
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

// FileID returns the pager file backing the tree.
func (t *Tree) FileID() pager.FileID { return t.fid }

// header page 0 layout: [4] magic "BTR1" [4] root page [8] entry count.
const headerMagic = 0x42545231

// Sync persists the tree header (root page number and entry count) to the
// reserved page 0 and forces every dirty node page to disk. A synced tree
// needs nothing from the pool: Open re-attaches to it from the disk alone.
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
// pager file.
func Open(p *pager.Pager, fid pager.FileID) (*Tree, error) {
	t := &Tree{state: state{p: p, fid: fid}}
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
	v := t.live()
	for no := t.root; ; t.height++ {
		pg, err := v.readPage(context.Background(), no)
		if err != nil {
			return nil, err
		}
		if isLeaf(pg) {
			break
		}
		no = binary.BigEndian.Uint32(pg[nodeHdr:])
	}
	t.cHeight.SetMax(int64(t.height))
	return t, nil
}

func trunc(key string) string {
	if len(key) > MaxKey {
		return key[:MaxKey]
	}
	return key
}

// Node pages:
//
//	[1]type [4]next [2]nkeys
//	leaf:     nkeys * ([2]klen [klen]key [8]val)
//	internal: [4]kid0 then nkeys * ([2]klen [klen]key [4]kid)
//
// A cell is a key followed by its pointer: the value in a leaf, the
// child right of the key in an internal node, whose leftmost child kid0
// precedes the first cell. So in an internal node the child left of the
// cell at offset off is always the four bytes before off. Cells are
// packed from the header on and the rest of the page is zero; next links
// the leaf chain (0 = none) and is 0 in internal nodes.
const (
	typeLeaf     = 0
	typeInternal = 1

	nodeHdr  = 1 + 4 + 2
	leafPtr  = 8 // width of a leaf cell's value
	innerPtr = 4 // width of a child page number
)

func isLeaf(pg []byte) bool     { return pg[0] == typeLeaf }
func nodeNext(pg []byte) uint32 { return binary.BigEndian.Uint32(pg[1:5]) }
func nodeKeys(pg []byte) int    { return int(binary.BigEndian.Uint16(pg[5:7])) }

// cellLayout returns the offset of a node's first cell and the width of
// its cells' pointers.
func cellLayout(pg []byte) (first, ptr int) {
	if isLeaf(pg) {
		return nodeHdr, leafPtr
	}
	return nodeHdr + innerPtr, innerPtr
}

// cellKey returns the key of the cell at off, aliasing the page, and the
// offset of the pointer behind it.
func cellKey(pg []byte, off int) (key []byte, ptrOff int) {
	kl := int(binary.BigEndian.Uint16(pg[off:]))
	return pg[off+2 : off+2+kl], off + 2 + kl
}

// seek walks a node's cells to the first whose key is greater than key —
// or, with orEqual, not less than it — and returns that cell's offset and
// index: the end of the cells and nkeys when there is none. Keys are
// compared where they lie (string(k) in a comparison does not allocate).
func seek(pg []byte, key string, orEqual bool) (off, i int) {
	off, ptr := cellLayout(pg)
	for n := nodeKeys(pg); i < n; i++ {
		k, p := cellKey(pg, off)
		if orEqual && string(k) >= key || !orEqual && string(k) > key {
			break
		}
		off = p + ptr
	}
	return off, i
}

// skipCells returns the offset n cells on from the cell at off.
func skipCells(pg []byte, off, n, ptr int) int {
	for ; n > 0; n-- {
		off += 2 + int(binary.BigEndian.Uint16(pg[off:])) + ptr
	}
	return off
}

// putNode builds a node page from its header fields and an already
// encoded cell area (for an internal node, kid0 and the cells) and hands
// it to the pager.
func (t *Tree) putNode(pageNo uint32, typ byte, next uint32, nkeys int, cells []byte) error {
	if size := nodeHdr + len(cells); size > pager.PageSize {
		return fmt.Errorf("btree: node overflow: %d bytes", size)
	}
	pg := make([]byte, pager.PageSize)
	pg[0] = typ
	binary.BigEndian.PutUint32(pg[1:5], next)
	binary.BigEndian.PutUint16(pg[5:7], uint16(nkeys))
	copy(pg[nodeHdr:], cells)
	return t.p.WriteOwned(t.fid, pageNo, pg)
}

// Entry is one (key, value) pair of a tree.
type Entry struct {
	Key string
	Val uint64
}

// SortEntries orders a run the way the tree holds it: by key truncated to
// MaxKey, entries whose truncated keys are equal in the order given — so
// a run inserted after sorting answers Search with duplicates in their
// original order, as single Inserts in that order would.
func SortEntries(run []Entry) {
	slices.SortStableFunc(run, func(a, b Entry) int { return strings.Compare(trunc(a.Key), trunc(b.Key)) })
}

// Insert adds (key, val). Duplicate keys are allowed. Insert takes the
// exclusive latch: concurrent searches wait for the tree to be
// structurally consistent again.
func (t *Tree) Insert(key string, val uint64) error {
	return t.InsertRun([]Entry{{key, val}})
}

// InsertRun adds the entries of run in order, as that many Inserts would,
// under one hold of the latch. It is made for an ascending run
// (SortEntries): entries that land behind the last cell of the rightmost
// leaf go into it together, one page image per leaf filled instead of one
// per entry, and a leaf that fills splits at its edge (split), so a
// sorted build leaves every leaf but the last full. Any other entry costs
// what an Insert costs. Nothing is remembered between calls or between
// leaves: each batch descends from the root.
func (t *Tree) InsertRun(run []Entry) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(run) > 0 {
		v := t.live()
		took, sep, newChild, split, err := t.insert(&v, t.root, run, true)
		if err != nil {
			return err
		}
		if split {
			// Grow a new root.
			no, err := t.p.Append(t.fid)
			if err != nil {
				return err
			}
			cells := make([]byte, 0, innerPtr+2+len(sep)+innerPtr)
			cells = binary.BigEndian.AppendUint32(cells, t.root)
			cells = binary.BigEndian.AppendUint16(cells, uint16(len(sep)))
			cells = append(cells, sep...)
			cells = binary.BigEndian.AppendUint32(cells, newChild)
			if err := t.putNode(no, typeInternal, 0, 1, cells); err != nil {
				return err
			}
			t.root = no
			t.height++
			t.cHeight.SetMax(int64(t.height))
		}
		t.n += took
		run = run[took:]
	}
	return nil
}

// cellSize is the size of the cell an entry's key makes with a pointer
// of the given width.
func cellSize(key string, ptrSize int) int { return 2 + len(trunc(key)) + ptrSize }

// insert descends from pageNo, reading through v — the tree before the
// insert — to where run[0] belongs, adds it there and reports how many
// entries of the run it took. edge says pageNo is on the right spine and
// stays true while the descent takes the last child: at the leaf it means
// run[0] lands behind every entry of the tree, and so does what follows
// it for as long as the run ascends.
func (t *Tree) insert(v *TreeView, pageNo uint32, run []Entry, edge bool) (took int, sep string, newChild uint32, split bool, err error) {
	pg, err := v.readPage(context.Background(), pageNo)
	if err != nil {
		return 0, "", 0, false, err
	}
	// Past the last equal key: duplicates in a leaf keep insertion order,
	// and the descent goes right of an equal separator.
	off, i := seek(pg, trunc(run[0].Key), false)
	edge = edge && i == nodeKeys(pg)
	if isLeaf(pg) {
		took = 1
		if edge {
			// Take what the page has room for and, when the run goes on, the
			// entry after: it overflows the node at its last cell and starts
			// the sibling, so filling a leaf and chaining it on are one image.
			room := pager.PageSize - off - cellSize(run[0].Key, leafPtr)
			for took < len(run) && room >= 0 && trunc(run[took].Key) >= trunc(run[took-1].Key) {
				room -= cellSize(run[took].Key, leafPtr)
				took++
			}
		}
		sep, newChild, split, err = t.addCells(pageNo, pg, off, i, run[:took], edge)
		return took, sep, newChild, split, err
	}
	took, sep, newChild, split, err = t.insert(v, binary.BigEndian.Uint32(pg[off-innerPtr:]), run, edge)
	if err != nil || !split {
		return took, "", 0, false, err
	}
	sep, newChild, split, err = t.addCells(pageNo, pg, off, i, []Entry{{sep, uint64(newChild)}}, edge)
	return took, sep, newChild, split, err
}

// addCells writes the node pg back with cells (keys with the values of a
// leaf or the child page numbers of an internal node) inserted at offset
// off, cell index i: prefix, cells and suffix go into one fresh buffer,
// which becomes the page if it fits and is split if it does not — behind
// its last cell when that is the last of the cells added at the edge of
// the tree, else in the middle.
func (t *Tree) addCells(pageNo uint32, pg []byte, off, i int, cells []Entry, edge bool) (string, uint32, bool, error) {
	first, ptrSize := cellLayout(pg)
	n := nodeKeys(pg)
	end := skipCells(pg, off, n-i, ptrSize)
	size := 0
	for _, c := range cells {
		size += cellSize(c.Key, ptrSize)
	}
	nd := make([]byte, max(end+size, pager.PageSize))
	copy(nd, pg[:off])
	at, last := off, off
	for _, c := range cells {
		key := trunc(c.Key)
		last = at
		binary.BigEndian.PutUint16(nd[at:], uint16(len(key)))
		at += 2 + copy(nd[at+2:], key)
		if ptrSize == leafPtr {
			binary.BigEndian.PutUint64(nd[at:], c.Val)
		} else {
			binary.BigEndian.PutUint32(nd[at:], uint32(c.Val))
		}
		at += ptrSize
	}
	copy(nd[at:], pg[off:end])
	n += len(cells)
	binary.BigEndian.PutUint16(nd[5:7], uint16(n))
	if len(nd) == pager.PageSize {
		return "", 0, false, t.p.WriteOwned(t.fid, pageNo, nd)
	}
	if edge {
		return t.split(pageNo, nd, n-1, last)
	}
	// The first cell that starts in the second half of the bytes. Both
	// sides then fit a page whatever the key sizes: the image is at most
	// one cell over a page, the left side less than one cell over half of
	// it, and a cell is at most 2+MaxKey+8 bytes.
	mid, midOff := 0, first
	for midOff < len(nd)/2 {
		midOff = skipCells(nd, midOff, 1, ptrSize)
		mid++
	}
	return t.split(pageNo, nd, mid, midOff)
}

// split divides nd, a node image that outgrew its page, at the cell of
// index mid, offset midOff. A leaf keeps the cells before it and chains
// to a new right sibling that starts with it; its key is copied up as the
// separator. An internal node moves that key up instead: the child behind
// it becomes the right sibling's leftmost.
//
// An overflow in the middle of the tree splits at the middle of the
// node's bytes, so both halves have room for what comes next wherever it
// lands. One at the edge — the cell added is the last of a node on the
// right spine, which is where ascending keys arrive — splits at that
// cell: nothing will be inserted left of it while the keys keep
// ascending, so the left node stays full and the sibling starts with one
// cell (an internal one with none, only its leftmost child).
func (t *Tree) split(pageNo uint32, nd []byte, mid, midOff int) (string, uint32, bool, error) {
	t.cSplit.Inc()
	n := nodeKeys(nd)
	sep, sepPtr := cellKey(nd, midOff)
	rightNo, err := t.p.Append(t.fid)
	if err != nil {
		return "", 0, false, err
	}
	if isLeaf(nd) {
		err = t.putNode(rightNo, typeLeaf, nodeNext(nd), n-mid, nd[midOff:])
		if err == nil {
			err = t.putNode(pageNo, typeLeaf, rightNo, mid, nd[nodeHdr:midOff])
		}
	} else {
		err = t.putNode(rightNo, typeInternal, 0, n-mid-1, nd[sepPtr:])
		if err == nil {
			err = t.putNode(pageNo, typeInternal, 0, mid, nd[nodeHdr:midOff])
		}
	}
	if err != nil {
		return "", 0, false, err
	}
	return string(sep), rightNo, true, nil
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
	v := t.live()
	pageNo, err := v.findLeaf(ctx, key)
	if err != nil {
		return err
	}
	for pageNo != 0 {
		pg, err := v.readPage(ctx, pageNo)
		if err != nil {
			return err
		}
		n := nodeKeys(pg)
		for off, i := seek(pg, key, true); i < n; i++ {
			k, p := cellKey(pg, off)
			if string(k) != key {
				return ErrNotFound
			}
			next := p + leafPtr
			if binary.BigEndian.Uint64(pg[p:]) == val {
				end := skipCells(pg, next, n-i-1, leafPtr)
				nd := make([]byte, pager.PageSize)
				copy(nd, pg[:off])
				copy(nd[off:], pg[next:end])
				binary.BigEndian.PutUint16(nd[5:7], uint16(n-1))
				if err := t.p.WriteOwned(t.fid, pageNo, nd); err != nil {
					return err
				}
				t.n--
				t.cDelete.Inc()
				return nil
			}
			off = next
		}
		pageNo = nodeNext(pg)
	}
	return ErrNotFound
}
