// MVCC snapshot layer (DESIGN.md §15): copy-on-write page versions that
// let readers traverse a consistent epoch of the database while a writer
// mutates it — without the engine write lock ever appearing on the read
// path.
//
// The model is single-writer / multi-reader, matching the engines' update
// protocol (updates already serialize on the engine mutex; queries do
// not). Time is divided into commit epochs:
//
//   - The pager holds a current committed epoch E and the view its
//     committer published with it. A reader pins E (PinSnapshot), is
//     handed that view with the pin, and reads every page "as of E" with
//     ReadAt.
//   - A writer brackets one mutation — an update, an index build, a
//     load — in BeginMutation/EndMutation. The bracket targets epoch
//     E+1, and is identified by it: the first in-place Write of each
//     page captures the page's pre-image as a version superseded at E+1.
//     EndMutation publishes E+1 as the new committed epoch,
//     together with the view of the database at E+1 the writer built
//     inside the bracket. Epoch and view change in one critical section,
//     so "what is committed" has a single owner and a reader can never
//     hold the view of one epoch under the pin of another.
//   - ReadAt(fid, no, S) returns the oldest version with supersededAt > S,
//     or the live page when no version covers S. Because every page a
//     mutation changes is captured before it changes and E+1 is committed
//     only by EndMutation, a reader pinned at E sees exactly the
//     pre-update database for the whole mutation, and readers pinning
//     after EndMutation see exactly the post-update database.
//   - A bracket opened under BlockPins (a Load's) captures nothing: no
//     reader can pin before its commit, so no reader needs a pre-image,
//     and versioning a load would hold the whole database in memory.
//   - GC reclaims versions whose supersededAt is <= the lowest pinned
//     epoch, clamped to the committed epoch so an open bracket's
//     pre-images survive until their commit even with no pins held. It
//     runs inline, and only inline: the reclaimable set is a function of
//     (lowest pin, committed epoch), those change only in Release,
//     EndMutation and BlockPins, and each of them prunes before it
//     returns — so between two such events nothing is left for a timer to
//     find (TestInlinePruneLeavesNothingToCollect).
//
// Version buffers are the buffers they supersede: one buffer per page
// version, shared by disk, pool, snapshot and reader and immutable once a
// reader can reach it (the package comment in pager.go), so a captured
// pre-image needs no copy. The open bracket is the writer phase that says
// when a reader can: a buffer the writer installed in it is unreachable
// until its EndMutation. Readers are pinned at published epochs, a Load
// blocks every pin, and an update's bracket captured the page's pre-image
// before installing its first buffer (or the page is new in the bracket),
// so a pinned reader is served the version. Write may patch such a buffer
// in place; the next bracket's first write of the page installs a new one.
//
// A pruned version is garbage, except on a file marked with
// RecycleVersions (B+tree nodes), whose readers keep no page past their
// pin: no reader can reach its buffer once pruning passed it, so the
// buffer goes on a free list of at most maxFree pages, and Write's copy
// path takes it instead of allocating (recycled). The disk may still
// hold it — the page's new buffer may not have been written back yet —
// and only the pool latch, which pruning does not hold, can tell, so the
// check is made under the latch as a buffer leaves the unchecked half of
// the list, and one still on disk or in a frame is dropped.
//
// Quiesce: Load and ColdReset must not race pinned snapshots — they call
// BlockPins, which waits for every outstanding pin to be released and
// holds new PinSnapshot calls until UnblockPins. This replaces the old
// "no concurrent readers because of the engine write lock" assumption.
package pager

import (
	"sync"
	"sync/atomic"

	"xbench/internal/metrics"
)

// LiveEpoch is the sentinel epoch meaning "read the current page, no
// snapshot": ReadAt(fid, no, LiveEpoch) is exactly Read(fid, no).
const LiveEpoch = ^uint64(0)

// pageVersion is one superseded pre-image of a page: its content was
// current up to (but excluding) epoch supersededAt.
type pageVersion struct {
	supersededAt uint64
	data         []byte // immutable; aliases a replaced pool/disk buffer
	recycle      bool   // its file's versions may be recycled (RecycleVersions)
}

// mvccState carries the snapshot machinery; New builds it whole. It has
// its own mutex so pin and version bookkeeping never contend with the
// buffer-pool latch; lock order is p.mu before mvcc.mu (ReadAt takes them
// strictly in sequence, never nested the other way).
type mvccState struct {
	mu   sync.Mutex
	cond *sync.Cond // signals pin-count drops and unblocks

	epoch uint64 // current committed epoch
	// view is what the committer of epoch published with it (the
	// engine's frozen read surface; nil when there is nothing to read).
	// The pager only stores it and hands it out with each pin.
	view any
	// writer is the open bracket's target epoch, the epoch its
	// EndMutation commits, or 0 when no bracket is open. Target epochs
	// are unique and only grow, so the target also names the bracket: a
	// frame the writer installed remembers it (frame.own). Written under
	// mu, loaded by the pool's writer under p.mu.
	writer atomic.Uint64

	pins    map[uint64]int // pinned epoch -> pin count
	blocked bool           // BlockPins in force: new pins wait

	versions map[pageKey][]pageVersion // ascending supersededAt
	// retained is the number of page versions in versions, kept beside
	// the map so ReadAt can see "no version of any page exists" without
	// mu. Written under mu.
	retained atomic.Int64

	// The page buffer free list (recycled): reclaimed holds the
	// pre-images pruneLocked reclaimed from files that recycle their
	// versions, not yet checked; free the buffers checked unreachable.
	// Together they hold at most maxFree buffers. poison, when not 0, is
	// what a buffer is filled with as it enters free (PoisonRecycled).
	reclaimed []freedBuf
	free      [][]byte
	poison    byte

	// cached metrics (nil-safe); bound by SetMetrics.
	cPin     *metrics.Counter // pager.snap.pin: snapshots pinned
	cCapture *metrics.Counter // pager.snap.capture: page versions captured
	cVRead   *metrics.Counter // pager.snap.read.version: reads served from a version
	cGC      *metrics.Counter // pager.snap.gc: versions reclaimed
}

// freedBuf is a reclaimed page version's buffer and the page it was a
// version of.
type freedBuf struct {
	key  pageKey
	data []byte
}

// Snap is one pinned snapshot. Release is idempotent.
type Snap struct {
	p        *Pager
	epoch    uint64
	view     any
	released bool
}

// Epoch returns the pinned commit epoch.
func (s *Snap) Epoch() uint64 { return s.epoch }

// View returns what the pinned epoch's committer published with it: nil
// when that was nothing.
func (s *Snap) View() any { return s.view }

// Release unpins the snapshot, making its versions reclaimable.
func (s *Snap) Release() {
	if s == nil || s.p == nil {
		return
	}
	m := &s.p.mvcc
	m.mu.Lock()
	if s.released {
		m.mu.Unlock()
		return
	}
	s.released = true
	if n := m.pins[s.epoch]; n <= 1 {
		delete(m.pins, s.epoch)
	} else {
		m.pins[s.epoch] = n - 1
	}
	m.pruneLocked()
	m.cond.Broadcast()
	m.mu.Unlock()
}

// PinSnapshot pins the current committed epoch and returns the snapshot
// handle, which carries the view published with that epoch. While
// BlockPins is in force (Load, ColdReset) it waits for UnblockPins, so
// readers pin either the state before the exclusive operation or the
// state after it, never a half-built one.
func (p *Pager) PinSnapshot() *Snap {
	m := &p.mvcc
	m.mu.Lock()
	for m.blocked {
		m.cond.Wait()
	}
	s := &Snap{p: p, epoch: m.epoch, view: m.view}
	m.pins[s.epoch]++
	m.cPin.Inc()
	m.mu.Unlock()
	return s
}

// SnapshotEpoch returns the current committed epoch.
func (p *Pager) SnapshotEpoch() uint64 {
	m := &p.mvcc
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// PinnedSnapshots returns the number of outstanding pins (for tests and
// GC introspection).
func (p *Pager) PinnedSnapshots() int {
	m := &p.mvcc
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, c := range m.pins {
		n += c
	}
	return n
}

// LiveVersions returns the number of retained page versions.
func (p *Pager) LiveVersions() int { return int(p.mvcc.retained.Load()) }

// BlockPins waits for every outstanding snapshot pin to be released and
// then holds new PinSnapshot calls until UnblockPins. It is the quiesce
// primitive for Load and ColdReset: with no pins outstanding every page
// version is dead, so the version store is emptied too. A bracket opened
// under it versions nothing (capture): no reader can pin before its
// commit, so a Load's bracket does not hold the database it rewrites.
func (p *Pager) BlockPins() {
	m := &p.mvcc
	m.mu.Lock()
	for m.blocked { // serialize concurrent blockers
		m.cond.Wait()
	}
	m.blocked = true
	for len(m.pins) > 0 {
		m.cond.Wait()
	}
	// No pins and no open bracket (callers hold the engine write lock),
	// so every version is <= the committed epoch and this drops them all.
	m.pruneLocked()
	m.mu.Unlock()
}

// UnblockPins lifts BlockPins and wakes waiting readers.
func (p *Pager) UnblockPins() {
	m := &p.mvcc
	m.mu.Lock()
	m.blocked = false
	m.cond.Broadcast()
	m.mu.Unlock()
}

// BeginMutation opens the single writer's bracket and returns its target
// epoch, the epoch EndMutation commits: until then page writes capture
// pre-images superseded at the target. Mutations do not nest, and every
// bracket is closed: the engines serialize writers on their own mutex and
// end a failed mutation with EndMutation(nil).
func (p *Pager) BeginMutation() uint64 {
	m := &p.mvcc
	m.mu.Lock()
	defer m.mu.Unlock()
	m.writer.Store(m.epoch + 1)
	return m.epoch + 1
}

// EndMutation commits the next epoch and closes the open bracket, if
// there is one: epoch+1 becomes the current committed epoch and view what
// subsequent PinSnapshot calls hand out with it (nil withdraws the
// publication: there is nothing to read). It returns the committed
// epoch. What the writer installed in the bracket is reachable from here
// on, and the bracket's pre-images fall at or below the new epoch, so
// pruning reclaims those no pin reaches.
func (p *Pager) EndMutation(view any) uint64 {
	m := &p.mvcc
	m.mu.Lock()
	defer m.mu.Unlock()
	m.epoch++
	m.view = view
	m.writer.Store(0)
	m.pruneLocked()
	return m.epoch
}

// capture records a page's pre-image, superseded at the open bracket's
// target epoch. First capture per page per target wins: a later write to
// the same page in the same mutation must not overwrite the pre-image
// with a half-mutated one. No-op outside a bracket, and inside one opened
// under BlockPins (a Load's): no reader can pin before its commit, and
// versioning it would pin the whole database in memory. Callers hold
// p.mu; f is the page's file.
func (p *Pager) capture(f *file, key pageKey) {
	m := &p.mvcc
	m.mu.Lock()
	defer m.mu.Unlock()
	target := m.writer.Load()
	if target == 0 || m.blocked {
		return
	}
	vs := m.versions[key]
	if n := len(vs); n > 0 && vs[n-1].supersededAt >= target {
		return
	}
	m.versions[key] = append(vs, pageVersion{supersededAt: target, data: p.preImage(f, key), recycle: f.recycle})
	m.retained.Add(1)
	m.cCapture.Inc()
}

// preImage resolves a page's current content for capture: the pool frame
// if cached, else the disk image, else a zero page — an immutable buffer
// either way. Caller holds p.mu.
func (p *Pager) preImage(f *file, key pageKey) []byte {
	if i, ok := p.table[key]; ok {
		return p.frames[i].data
	}
	if key.no < uint32(len(f.pages)) {
		return f.page(key.no)
	}
	return zeroPage
}

// versionAt returns the content of the page as of epoch, or (nil, false)
// when no retained version covers it and the live page is the answer.
func (p *Pager) versionAt(key pageKey, epoch uint64) ([]byte, bool) {
	m := &p.mvcc
	m.mu.Lock()
	defer m.mu.Unlock()
	vs := m.versions[key]
	// Oldest version superseded strictly after the snapshot epoch is the
	// content that was current at that epoch.
	for i := range vs {
		if vs[i].supersededAt > epoch {
			m.cVRead.Inc()
			return vs[i].data, true
		}
	}
	return nil, false
}

// ReadAt returns the content of a page as of a pinned snapshot epoch.
// The caller must hold a Snap pinned at that epoch (otherwise GC may
// have reclaimed the versions it needs). Like Read, the returned slice
// is read-only and may alias shared buffers. ReadAt(fid, no, LiveEpoch)
// degenerates to Read.
//
// A version is looked for before the live read and again after it. The
// second look is what makes the answer right: the first races the
// writer, which between it and Read may capture this page's pre-image
// and overwrite the page. The writer always captures
// before it mutates, both under the pool latch, so if the live read
// observed mutated state the capture is visible afterwards: prefer it.
// When the second look finds nothing the live read was the epoch's page.
//
// Either look is skipped while no version of any page is retained. That
// loses nothing: a capture the read raced has supersededAt above the
// committed epoch, hence above the caller's pinned one, and pruning
// keeps every such version until the pin is released — so a count of
// zero after the live read proves no capture preceded it.
func (p *Pager) ReadAt(fid FileID, no uint32, epoch uint64) ([]byte, error) {
	if epoch == LiveEpoch {
		return p.Read(fid, no)
	}
	key := pageKey{fid, no}
	if p.mvcc.retained.Load() != 0 {
		if data, ok := p.versionAt(key, epoch); ok {
			return data, nil
		}
	}
	data, err := p.Read(fid, no)
	if p.mvcc.retained.Load() != 0 {
		if vdata, ok := p.versionAt(key, epoch); ok {
			return vdata, nil
		}
	}
	return data, err
}

// pruneLocked reclaims versions no pinned snapshot can reach: everything
// superseded at or before the lowest pinned epoch. The bound is clamped
// to the committed epoch: a version with supersededAt > epoch was
// captured by the still-open mutation bracket, and a reader may pin the
// committed epoch at any moment and need it — even when no pins are
// held right now. A reclaimed version of a file that recycles its
// versions goes to the free list's unchecked half while there is room.
// Caller holds mvcc.mu.
func (m *mvccState) pruneLocked() {
	low := m.epoch
	for e := range m.pins {
		if e < low {
			low = e
		}
	}
	if len(m.versions) == 0 {
		return
	}
	reclaimed := int64(0)
	for key, vs := range m.versions {
		i := 0
		for i < len(vs) && vs[i].supersededAt <= low {
			i++
		}
		if i == 0 {
			continue
		}
		for _, v := range vs[:i] {
			if v.recycle && len(m.reclaimed)+len(m.free) < maxFree && &v.data[0] != &zeroPage[0] {
				m.reclaimed = append(m.reclaimed, freedBuf{key, v.data})
			}
		}
		reclaimed += int64(i)
		if i == len(vs) {
			delete(m.versions, key)
		} else {
			m.versions[key] = append([]pageVersion(nil), vs[i:]...)
		}
	}
	if reclaimed > 0 {
		m.retained.Add(-reclaimed)
		m.cGC.Add(reclaimed)
	}
}

// GC runs one reclamation pass and returns the number of versions still
// retained. Every event that makes a version reclaimable already prunes
// inline, so it finds nothing; it is the instrument that says so.
func (p *Pager) GC() int {
	m := &p.mvcc
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pruneLocked()
	return int(m.retained.Load())
}

// maxFree bounds the page buffer free list at 32 pages, 256 KB a pager:
// a few updates' worth of reclaimed B+tree nodes (a shredding-engine U2
// rewrites up to a dozen), held at most until the next Write that copies.
const maxFree = 32

// RecycleVersions marks fid as a file whose pages are read only under a
// snapshot pin, and kept by no reader past it, or by the file's one
// writer under its own exclusion: the B+tree's contract (btree.New and
// btree.Open mark their files). The file's page versions, once pruned,
// then become the buffers of later writes (recycled) instead of garbage.
// A heap never qualifies: the native record memo and HeapView.Get hand
// out slices of its pages that outlive the pin.
func (p *Pager) RecycleVersions(fid FileID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.files[fid]; ok {
		f.recycle = true
	}
}

// PoisonRecycled makes every page buffer be filled with fill as it
// enters the free list (0, the default, leaves them as they are). It is a
// test hook: a reader that could still reach a recycled buffer reads the
// poison at once, not only once the buffer has become another page.
func (p *Pager) PoisonRecycled(fill byte) {
	m := &p.mvcc
	m.mu.Lock()
	m.poison = fill
	m.mu.Unlock()
}

// recycled returns a buffer from the free list for Write's copy path,
// which overwrites it whole, or nil when there is none. The reclaimed
// buffers are checked first, under the pool latch the caller holds: one
// still its page's disk image or a frame's buffer is dropped — pruning
// says no pin reaches a version, not that its page was written back
// since — and the rest enter the free list, poisoned if PoisonRecycled
// asked for it. A checked buffer cannot become reachable again but by
// being handed out here: the pool installs only the buffers writes bring
// and disk images, and a write-back stores only frames' buffers.
func (p *Pager) recycled() []byte {
	m := &p.mvcc
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, fb := range m.reclaimed {
		if p.reachable(fb) {
			continue
		}
		if m.poison != 0 {
			for i := range fb.data {
				fb.data[i] = m.poison
			}
		}
		m.free = append(m.free, fb.data)
	}
	clear(m.reclaimed)
	m.reclaimed = m.reclaimed[:0]
	n := len(m.free)
	if n == 0 {
		return nil
	}
	pg := m.free[n-1]
	m.free[n-1] = nil
	m.free = m.free[:n-1]
	p.cRecycle.Inc()
	return pg
}

// reachable reports whether fb's buffer is still its page's disk image or
// the buffer of its page's frame. Caller holds p.mu.
func (p *Pager) reachable(fb freedBuf) bool {
	if f, ok := p.files[fb.key.fid]; ok && fb.key.no < uint32(len(f.pages)) {
		if pg := f.pages[fb.key.no]; pg != nil && &pg[0] == &fb.data[0] {
			return true
		}
	}
	i, ok := p.table[fb.key]
	return ok && &p.frames[i].data[0] == &fb.data[0]
}

// setSnapMetrics binds the snapshot counters; called from SetMetrics
// with p.mu held.
func (p *Pager) setSnapMetrics(reg *metrics.Registry) {
	m := &p.mvcc
	m.mu.Lock()
	m.cPin = reg.Counter("pager.snap.pin")
	m.cCapture = reg.Counter("pager.snap.capture")
	m.cVRead = reg.Counter("pager.snap.read.version")
	m.cGC = reg.Counter("pager.snap.gc")
	m.mu.Unlock()
}
