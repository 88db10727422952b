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
//   - A writer brackets one update in BeginMutation/EndMutation. The
//     mutation targets epoch E+1: the first in-place Write (or Truncate)
//     of each page captures the page's pre-image as a version superseded
//     at E+1. EndMutation publishes E+1 as the new committed epoch,
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
//   - GC reclaims versions whose supersededAt is <= the lowest pinned
//     epoch, clamped to the committed epoch so an open bracket's
//     pre-images survive until their commit even with no pins held. It
//     runs inline, and only inline: the reclaimable set is a function of
//     (lowest pin, committed epoch), those change only in Release,
//     EndMutation, AdvanceEpoch and BlockPins, and each of them prunes
//     before it returns — so between two such events nothing is left for
//     a timer to find (TestInlinePruneLeavesNothingToCollect).
//
// Version buffers are the buffers they supersede: one immutable buffer
// per page version, shared by disk, pool, snapshot and reader (the
// package comment in pager.go), so a captured pre-image needs no copy.
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
	view      any
	mutTarget uint64 // epoch the active mutation commits as; 0 = none
	mutActive bool

	pins    map[uint64]int // pinned epoch -> pin count
	blocked bool           // BlockPins in force: new pins wait

	versions map[pageKey][]pageVersion // ascending supersededAt
	// retained is the number of page versions in versions, kept beside
	// the map so ReadAt can see "no version of any page exists" without
	// mu. Written under mu.
	retained atomic.Int64
	// newPages tracks pages appended inside the active mutation: they did
	// not exist at any pinned epoch, so their writes need no pre-image.
	newPages map[pageKey]struct{}

	// cached metrics (nil-safe); bound by SetMetrics.
	cPin     *metrics.Counter // pager.snap.pin: snapshots pinned
	cCapture *metrics.Counter // pager.snap.capture: page versions captured
	cVRead   *metrics.Counter // pager.snap.read.version: reads served from a version
	cGC      *metrics.Counter // pager.snap.gc: versions reclaimed
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
// version is dead, so the version store is emptied too.
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

// BeginMutation starts the single writer's copy-on-write bracket: page
// writes until EndMutation capture pre-images superseded at the returned
// target epoch. Mutations do not nest, and every bracket is closed: the
// engines serialize writers on their own mutex and end a failed mutation
// with EndMutation(nil).
func (p *Pager) BeginMutation() uint64 {
	m := &p.mvcc
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mutActive = true
	m.mutTarget = m.epoch + 1
	m.newPages = make(map[pageKey]struct{})
	return m.mutTarget
}

// EndMutation commits the bracket: the target epoch becomes the current
// committed epoch and view what subsequent PinSnapshot calls hand out
// with it (nil withdraws the publication: there is nothing to read). It
// returns the committed epoch.
func (p *Pager) EndMutation(view any) uint64 {
	m := &p.mvcc
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.mutActive {
		return m.epoch
	}
	m.epoch, m.view = m.mutTarget, view
	m.mutActive = false
	m.newPages = nil
	m.pruneLocked()
	return m.epoch
}

// AdvanceEpoch bumps the committed epoch outside a mutation bracket and
// publishes view with it, as EndMutation does — pruning included: a
// bracket its caller abandoned is closed here, and its pre-images fall
// at or below the new epoch. Load uses it after rebuilding the database
// under BlockPins, so stale snapshot handles (epoch < current) are
// distinguishable from fresh ones.
func (p *Pager) AdvanceEpoch(view any) uint64 {
	m := &p.mvcc
	m.mu.Lock()
	defer m.mu.Unlock()
	m.epoch++
	m.view = view
	m.mutActive = false
	m.newPages = nil
	m.pruneLocked()
	return m.epoch
}

// capture records a page's pre-image, superseded at the active mutation's
// target epoch. First capture per page per target wins: a later write to
// the same page in the same mutation must not overwrite the pre-image
// with a half-mutated one. No-op outside a mutation bracket (bulk Load
// runs under BlockPins instead — versioning it would pin the whole
// database in memory). Callers hold p.mu; data must be an immutable
// buffer (the replaced pool/disk buffer, or zeroPage).
func (p *Pager) capture(key pageKey, data []byte) {
	m := &p.mvcc
	m.mu.Lock()
	if !m.mutActive {
		m.mu.Unlock()
		return
	}
	if _, isNew := m.newPages[key]; isNew {
		m.mu.Unlock()
		return
	}
	vs := m.versions[key]
	if n := len(vs); n > 0 && vs[n-1].supersededAt >= m.mutTarget {
		m.mu.Unlock()
		return
	}
	m.versions[key] = append(vs, pageVersion{supersededAt: m.mutTarget, data: data})
	m.retained.Add(1)
	m.cCapture.Inc()
	m.mu.Unlock()
}

// mutationActive reports whether a BeginMutation bracket is open.
func (p *Pager) mutationActive() bool {
	m := &p.mvcc
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mutActive
}

// noteAppend records a page appended inside the active mutation, exempting
// its writes from pre-image capture. Callers hold p.mu.
func (p *Pager) noteAppend(key pageKey) {
	m := &p.mvcc
	m.mu.Lock()
	if m.mutActive {
		m.newPages[key] = struct{}{}
	}
	m.mu.Unlock()
}

// preImage resolves a page's current content for capture: the pool frame
// if cached, else the disk image, else a zero page. Caller holds p.mu.
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
// and overwrite (or truncate) the page. The writer always captures
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
// held right now. Caller holds mvcc.mu.
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
