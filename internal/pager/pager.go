// Package pager simulates the disk subsystem beneath every storage engine:
// page-addressed files, a write-back CLOCK buffer pool, and I/O accounting.
//
// The paper measures cold-run times on a 2 GHz / 1 GB Windows XP machine.
// We cannot reproduce 2004 hardware, so the engines run over this shared
// pager and the benchmark reports wall-clock time plus page I/O counts
// (the harness converts I/O to time with an explicit seek-cost model).
//
// The pool is write-back: Write dirties a frame without disk I/O; a disk
// write is counted when a dirty frame is evicted, synced (the fsync
// analog used for per-file durability during multi-document loads) or
// flushed by ColdReset. Repeated updates to a hot page — B+tree leaves
// during index builds — are therefore absorbed, as on a real DBMS.
// ColdReset flushes and drops the pool, reproducing the paper's "cold
// run ... to prevent caching effects" methodology. A load starts on an
// empty disk: DropFiles deletes every file and empties the pool, and the
// store creates its files again, from file id 0. Files are never deleted
// one at a time.
//
// Latching: the pool is guarded by one reader/writer latch. Pool hits —
// the overwhelmingly common case for warm multi-client workloads — take
// the latch shared, so concurrent readers proceed in parallel; misses,
// writes, syncs and ColdReset take it exclusive. I/O events are counted
// once, in the counters of the pager's metrics registry: IO (the
// engines' PageIO) is a read of two of them, and a pool hit costs one
// atomic add. The CLOCK reference bit is set atomically under the shared
// latch; all other frame state changes happen under the exclusive latch.
//
// Eviction (DESIGN.md §13): the pool is scan-resistant. Replacement is
// CLOCK — a hand over per-frame reference bits, which a hit sets and the
// hand clears, so a page hit since the hand last passed survives one more
// sweep. On top of that, consecutive read misses on a file are detected
// as a sequential stream: stream pages recycle a small ring of frames the
// stream itself owns instead of running the hand, so a one-pass scan of
// a file larger than the pool evicts its own previous pages and leaves
// the hot working set alone — and each detected stream prefetches the
// next ReadaheadWindow pages in one batch, so the scan's demand reads
// become pool hits.
//
// Page buffers (DESIGN.md §13): one buffer per page version, shared by
// disk, pool, snapshot and reader, and immutable once a reader can reach
// it. A page changes by getting a new buffer — Write patches the caller's
// bytes into a copy of the page — except that Write patches in place a
// buffer the writer installed in the mutation bracket still open (its
// writer phase, identified by its target epoch: mvcc.go), which no reader
// can reach yet. That is how a heap fills its tail page
// and a B+tree its split's new sibling — the
// bytes go straight into the zeroed buffer Append installed, and no layer
// above keeps a page of its own — and how a B+tree node written twice in
// one update costs one copy. Patching one that a per-document write-back
// also made the disk image is unobservable: the patch dirties the frame,
// which serves every read of the page until it is written back, and a
// crashed pager never reads again. So nothing is copied between the
// layers: a write-back stores the frame's buffer as the disk image, a
// read miss or a readahead installs the disk image in the frame, an MVCC
// pre-image is the buffer its write replaced, and Read hands out the
// frame's buffer. No read copies.
//
// A reader holding a buffer holds that version of the page for as long as
// it likes, with one exception that recycles buffers: the files marked
// with RecycleVersions (B+tree nodes), whose readers keep no page past
// the snapshot pin they read it under. Once no pin can reach a pre-image
// of such a file, pruning puts its buffer on a bounded free list, and the
// copy Write makes goes into a buffer from that list — checked under the
// pool latch to be neither its page's disk image nor a frame's — before
// it allocates one (mvcc.go). A heap's pages are never recycled: the
// native record memo and HeapView.Get hand out slices of them that
// outlive the pin.
package pager

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"xbench/internal/metrics"
)

// PageSize is the simulated page size in bytes.
const PageSize = 8192

// FileID identifies a paged file within a Pager.
type FileID uint32

// Pager owns a set of simulated files and a shared buffer pool.
// It is safe for concurrent use: reads that hit the pool share the
// latch; everything that changes pool structure is exclusive.
type Pager struct {
	mu    sync.RWMutex
	files map[FileID]*file
	next  FileID

	// buffer pool (CLOCK replacement, write-back)
	capacity int
	frames   []frame
	table    map[pageKey]int // pageKey -> frame index
	hand     int
	// dirtied has a bit per frame that may be dirty: install sets it with
	// the dirty flag, and a sync clears it when it leaves the frame clean.
	// Every dirty frame's bit is set, so Sync and SyncAll walk these bits
	// in frame order instead of every frame of the pool.
	dirtied []uint64

	// scan resistance + readahead (see the package comment)
	streams map[FileID]*seqStream

	// fault injection (fault.go); nil when the disk is perfect.
	fault *faultState
	// down is nil while the pager does I/O: ErrClosed once Close ran,
	// ErrCrashed once a crash point fired (fault.go). Every file operation
	// checks it once, under the latch it holds, and fails with it.
	down error
	// onCold is what ColdReset runs after the pool drop, still quiesced
	// (OnColdReset).
	onCold []func()

	// reg holds the pager's event counters, each event counted exactly
	// once: IO reads two of them from here. The cached pointers
	// keep the hot paths at one atomic add per event. New binds a registry
	// of the pager's own; SetMetrics rebinds to the caller's.
	reg         *metrics.Registry
	cRead       *metrics.Counter // pager.read: demand disk reads (pool misses)
	cWrite      *metrics.Counter // pager.write: disk writes (write-backs)
	cHit        *metrics.Counter // pager.hit: pool hits
	cEvict      *metrics.Counter // pager.evict: frames evicted (all causes)
	cEvictDirty *metrics.Counter // pager.evict.dirty: evictions that wrote back
	cEvictScan  *metrics.Counter // pager.evict.scan: stream-ring recycles
	cRAIssued   *metrics.Counter // pager.readahead.issued: pages prefetched
	cRAHit      *metrics.Counter // pager.readahead.hit: demand hits on prefetched frames
	cRAWasted   *metrics.Counter // pager.readahead.wasted: prefetched frames evicted unused
	cHeapDead   *metrics.Counter // pager.heap.tombstone: heap records deleted in place
	cHeapReuse  *metrics.Counter // pager.heap.reuse: inserts placed in a dead extent
	cRecycle    *metrics.Counter // pager.recycle: page buffers Write took from the free list

	// mvcc is the snapshot layer (mvcc.go): commit epochs, pinned
	// snapshots, copy-on-write page versions and their GC.
	mvcc mvccState
}

type pageKey struct {
	fid FileID
	no  uint32
}

type frame struct {
	key  pageKey
	data []byte
	// ref is the CLOCK reference bit: 1 once the page is hit, 0 after
	// the hand passes it. It and prefetched are the two frame fields
	// touched under the shared latch (atomically, by concurrent pool
	// hits); the exclusive latch covers every other access.
	ref uint32
	// prefetched is 1 while the frame holds a readahead page no demand
	// read has consumed yet (cleared atomically by the first hit).
	prefetched uint32
	dirty      bool
	valid      bool
	// own is the target epoch of the bracket (mvccState.writer) in which
	// the writer installed data; 0 for a read miss, a prefetch, or a write
	// outside any bracket. While that bracket is open, Write patches data
	// in place.
	own uint64
}

// seqStream tracks one file's sequential read pattern: the last missed
// page, the current run of consecutive misses, and the small ring of
// frames the stream recycles once it is detected. All fields are guarded
// by the pager's exclusive latch.
type seqStream struct {
	lastNo   uint32
	started  bool // lastNo is meaningful
	streak   int  // consecutive +1 misses
	ring     []ringSlot
	ringNext int
}

// ringSlot remembers a frame the stream installed and the page it put
// there; if the main hand reassigned the frame meanwhile, the slot is
// stale and the stream falls back to a normal acquisition.
type ringSlot struct {
	idx int
	key pageKey
}

type file struct {
	name  string
	pages [][]byte // the "disk"; nil entries were never written back
	// recycle says the file's reclaimed page versions may be reused as
	// page buffers (RecycleVersions).
	recycle bool
}

// page returns the disk image of page no, which must exist: the buffer
// the last write-back stored, or zeroPage for a slot never written back.
// A read miss installs it in the pool as it is.
func (f *file) page(no uint32) []byte {
	if pg := f.pages[no]; pg != nil {
		return pg
	}
	return zeroPage
}

// zeroPage is the image of every page slot that was reserved but never
// written back. It is shared and must never be mutated.
var zeroPage = make([]byte, PageSize)

// DefaultPoolPages is the default buffer pool capacity (4 MB of pages),
// deliberately small relative to the Large databases so cold scans are
// disk-bound, as they were on the paper's 1 GB machine.
const DefaultPoolPages = 512

// New returns a pager with the given buffer pool capacity in pages
// (<= 0 selects DefaultPoolPages).
func New(poolPages int) *Pager {
	if poolPages <= 0 {
		poolPages = DefaultPoolPages
	}
	p := &Pager{
		files:    make(map[FileID]*file),
		capacity: poolPages,
		frames:   make([]frame, poolPages),
		dirtied:  make([]uint64, (poolPages+63)/64),
		table:    make(map[pageKey]int, poolPages),
		streams:  make(map[FileID]*seqStream),
		mvcc: mvccState{
			pins:     make(map[uint64]int),
			versions: make(map[pageKey][]pageVersion),
		},
	}
	p.mvcc.cond = sync.NewCond(&p.mvcc.mu)
	p.SetMetrics(metrics.NewRegistry())
	return p
}

// seqThreshold is the number of consecutive +1-page read misses that
// promotes a file's access pattern to a detected sequential stream.
const seqThreshold = 3

// SetMetrics replaces the registry New bound: every subsequent disk read,
// write, pool hit and eviction is counted under "pager.*" names in reg,
// and IO reads them there — call it before
// the pager does I/O, or IO restarts from reg's values. Pagers that
// share one registry share those counters, so each one's IO is the
// total. Layers above the pager (btree, relational, the engines) reach
// the same registry via Metrics.
func (p *Pager) SetMetrics(reg *metrics.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reg = reg
	p.cRead = reg.Counter("pager.read")
	p.cWrite = reg.Counter("pager.write")
	p.cHit = reg.Counter("pager.hit")
	p.cEvict = reg.Counter("pager.evict")
	p.cEvictDirty = reg.Counter("pager.evict.dirty")
	p.cEvictScan = reg.Counter("pager.evict.scan")
	p.cRAIssued = reg.Counter("pager.readahead.issued")
	p.cRAHit = reg.Counter("pager.readahead.hit")
	p.cRAWasted = reg.Counter("pager.readahead.wasted")
	p.cHeapDead = reg.Counter("pager.heap.tombstone")
	p.cHeapReuse = reg.Counter("pager.heap.reuse")
	p.cRecycle = reg.Counter("pager.recycle")
	p.setSnapMetrics(reg)
}

// Metrics returns the registry the pager counts into.
func (p *Pager) Metrics() *metrics.Registry {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.reg
}

// ErrClosed is returned by file operations on a pager after Close.
var ErrClosed = fmt.Errorf("pager: closed")

// Create makes a new empty file and returns its id. On a closed or
// crashed pager it returns an unregistered id, whose operations fail with
// the pager's ErrClosed or ErrCrashed.
func (p *Pager) Create(name string) FileID {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := p.next
	p.next++
	if p.down != nil {
		return id
	}
	p.files[id] = &file{name: name}
	return id
}

// Close releases the pager's simulated file handles, buffer pool frames
// and fault state. Dirty pages are flushed best-effort first (a
// crashed pager simply drops them). Double-Close is safe; any file
// operation after Close fails with ErrClosed.
func (p *Pager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if errors.Is(p.down, ErrClosed) {
		return nil
	}
	p.flushPool()
	p.down = ErrClosed
	p.files = make(map[FileID]*file)
	p.frames = nil
	p.dirtied = nil
	p.table = nil
	p.streams = nil
	p.fault = nil
	m := &p.mvcc
	m.mu.Lock()
	m.reclaimed, m.free = nil, nil
	m.mu.Unlock()
	return nil
}

// OpenFiles returns the number of simulated file handles currently open
// (0 after Close). It is the observable the fd-leak tests assert on.
func (p *Pager) OpenFiles() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.files)
}

// FileName returns the name a file was created with ("" for an unknown
// id). With OpenFiles and NumPages it lets a test walk every file of an
// engine and hold each to a size bound by what it stores.
func (p *Pager) FileName(fid FileID) string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if f, ok := p.files[fid]; ok {
		return f.name
	}
	return ""
}

// DropFiles deletes every file and empties the pool — frames, dirty bits,
// CLOCK hand, streams — writing nothing back: the empty disk a load
// starts from. File ids restart at 0, so a store that creates its files
// again in the same order gets the same ids. The caller quiesces first
// (BlockPins): no reader may hold a page of a dropped file, and with no
// pin outstanding no page version is retained under an id a new file
// takes. It fails on a closed or crashed pager: a dead machine cannot
// clean up after itself.
func (p *Pager) DropFiles() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down != nil {
		return p.down
	}
	clear(p.files)
	p.next = 0
	p.clearPool()
	return nil
}

// NumPages returns the page count of a file.
func (p *Pager) NumPages(fid FileID) uint32 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if f, ok := p.files[fid]; ok {
		return uint32(len(f.pages))
	}
	return 0
}

// Append adds a new zeroed page to the file and returns its number. The
// page starts life dirty in the pool; its disk write is counted when it
// is evicted or synced.
func (p *Pager) Append(fid FileID) (uint32, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down != nil {
		return 0, p.down
	}
	f, ok := p.files[fid]
	if !ok {
		return 0, fmt.Errorf("pager: unknown file %d", fid)
	}
	no := uint32(len(f.pages))
	f.pages = append(f.pages, nil) // reserve the slot; data arrives on write-back
	if err := p.install(pageKey{fid, no}, make([]byte, PageSize), true); err != nil {
		return 0, err
	}
	return no, nil
}

// Read returns the content of a page. By default the returned slice is
// the page version's one buffer (see the package comment): the pool
// frame's, which is also the page's disk image once it was read or
// written back, and the pre-image any later write captures for a
// snapshot. Callers must treat it as read-only and use Write to change
// pages — mutating the returned slice corrupts the
// pool, the simulated disk and every snapshot of the page at once.
//
// Concurrent readers of a returned slice are safe even across eviction:
// a buffer a reader can reach is replaced wholesale, never mutated in
// place, so a reader holds a consistent (possibly superseded) version of
// the page — for as long as it likes, or, on a file marked with
// RecycleVersions, for as long as it holds the snapshot pin it read the
// page under, after which the buffer may become another page's.
// The B+tree relies on exactly that: its readers walk the cells of the
// returned slice under their pin without decoding them; its writer keeps
// a slice across the writes of a split further down and writes every node
// back through Write: patched in place when the open bracket owns its
// buffer, else copied.
//
// A hit is served under the shared latch; a miss upgrades to the
// exclusive latch (re-checking the table, since another reader may have
// installed the page in the window) and fetches from disk.
func (p *Pager) Read(fid FileID, no uint32) ([]byte, error) {
	key := pageKey{fid, no}

	p.mu.RLock()
	if err := p.down; err != nil {
		p.mu.RUnlock()
		return nil, err // even pool hits: the machine is down
	}
	if i, ok := p.table[key]; ok {
		p.bumpRef(&p.frames[i])
		data := p.frames[i].data
		cHit := p.cHit
		p.mu.RUnlock()
		cHit.Inc()
		return data, nil
	}
	p.mu.RUnlock()

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down != nil {
		return nil, p.down
	}
	// Another reader may have faulted the page in while we waited.
	if i, ok := p.table[key]; ok {
		p.bumpRef(&p.frames[i])
		p.cHit.Inc()
		return p.frames[i].data, nil
	}
	f, ok := p.files[fid]
	if !ok || no >= uint32(len(f.pages)) {
		return nil, fmt.Errorf("pager: read beyond end of file %d page %d", fid, no)
	}
	if err := p.diskOp(); err != nil {
		return nil, err
	}
	p.cRead.Inc()
	data := f.page(no)
	if st := p.noteMiss(fid, no); st != nil {
		if err := p.installScan(st, key, data, false); err != nil {
			return nil, err
		}
		p.readahead(f, fid, st, no)
	} else if err := p.install(key, data, false); err != nil {
		return nil, err
	}
	return data, nil
}

// bumpRef sets a frame's CLOCK reference bit and consumes its
// prefetched flag, counting a readahead hit the first time a demand read
// lands on a prefetched page. Callers hold at least the shared latch, so
// the frame fields are touched atomically (concurrent hits race on them);
// the bit is stored only while it is clear, so a hit on a referenced page
// writes nothing.
func (p *Pager) bumpRef(fr *frame) {
	if atomic.LoadUint32(&fr.ref) == 0 {
		atomic.StoreUint32(&fr.ref, 1)
	}
	if atomic.SwapUint32(&fr.prefetched, 0) == 1 {
		p.cRAHit.Inc()
	}
}

// Write patches b in at offset off of page no and marks the page dirty
// (write-back: no disk write is counted yet); the caller keeps b. It is
// the one way a page's bytes change, besides Append and DropFiles. While
// the open bracket owns the page's buffer (see the package comment) the
// patch goes into that buffer. Otherwise it goes into a copy of the
// page, read as Read reads it — a write that covers the whole page reads
// nothing — which becomes the page's buffer; inside a bracket the buffer
// it replaces is the pre-image, unless pins are blocked (capture). The copy goes into a recycled
// buffer when the free list holds one, else a new page.
func (p *Pager) Write(fid FileID, no uint32, off int, b []byte) error {
	if off < 0 || off+len(b) > PageSize {
		return fmt.Errorf("pager: write of %d bytes at offset %d exceeds page size", len(b), off)
	}
	key := pageKey{fid, no}
	p.mu.Lock()
	if i, ok := p.table[key]; ok && p.down == nil && p.writerOwns(&p.frames[i]) {
		// Installed in this bracket, so its pre-image is captured (or the
		// page is new, or pins are blocked) and no reader can reach it:
		// patch it.
		copy(p.frames[i].data[off:], b)
		err := p.install(key, p.frames[i].data, true)
		p.mu.Unlock()
		return err
	}
	pg := p.recycled()
	p.mu.Unlock()
	if pg == nil {
		pg = make([]byte, PageSize)
	}
	if len(b) < PageSize {
		old, err := p.Read(fid, no)
		if err != nil {
			return err
		}
		copy(pg, old)
	}
	copy(pg[off:], b)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down != nil {
		return p.down
	}
	f, ok := p.files[fid]
	if !ok || no >= uint32(len(f.pages)) {
		return fmt.Errorf("pager: write beyond end of file %d page %d", fid, no)
	}
	p.capture(f, key)
	return p.install(key, pg, true)
}

// writerOwns reports whether fr's buffer was installed by the writer in
// the bracket still open.
func (p *Pager) writerOwns(fr *frame) bool {
	return fr.own != 0 && fr.own == p.mvcc.writer.Load()
}

// install places a page into the buffer pool, evicting with CLOCK and
// writing back the victim if dirty. dirty marks a write's buffer, owned by
// the bracket open now (if any); a clean one is a disk image. It
// fails only when the eviction write-back does (crash); the pool is left
// unchanged then. Callers hold the exclusive latch, so frame fields may be
// accessed plainly here.
func (p *Pager) install(key pageKey, data []byte, dirty bool) error {
	var own uint64
	if dirty {
		own = p.mvcc.writer.Load()
	}
	i, ok := p.table[key]
	if ok {
		p.frames[i].data, p.frames[i].own = data, own
		p.bumpRef(&p.frames[i])
		p.frames[i].dirty = p.frames[i].dirty || dirty
	} else {
		var err error
		if i, err = p.acquireFrame(); err != nil {
			return err
		}
		p.frames[i] = frame{key: key, data: data, ref: 1, dirty: dirty, valid: true, own: own}
		p.table[key] = i
	}
	if dirty {
		p.dirtied[i/64] |= 1 << (i % 64)
	}
	return nil
}

// acquireFrame runs the CLOCK hand to a victim frame, writes back a
// dirty victim, evicts it, and returns the now-free frame index. The
// hand clears each reference bit it passes, so a page hit since the last
// sweep survives this one. Callers hold the exclusive latch.
func (p *Pager) acquireFrame() (int, error) {
	for {
		fr := &p.frames[p.hand]
		if !fr.valid {
			break
		}
		if fr.ref != 0 {
			fr.ref = 0
			p.hand = (p.hand + 1) % p.capacity
			continue
		}
		if fr.dirty {
			if err := p.writeBack(fr); err != nil {
				return 0, err
			}
			p.cEvictDirty.Inc()
		}
		if fr.prefetched == 1 {
			p.cRAWasted.Inc()
		}
		delete(p.table, fr.key)
		p.cEvict.Inc()
		break
	}
	idx := p.hand
	p.hand = (p.hand + 1) % p.capacity
	return idx, nil
}

// readaheadWindow returns the prefetch batch size for this pool: up to 8
// pages, shrunk for small pools, and 0 (readahead and stream detection
// disabled) when the pool is too small for a stream ring to do anything
// but pollute it.
func (p *Pager) readaheadWindow() int {
	w := 8
	if c := p.capacity / 4; c < w {
		w = c
	}
	if w < 2 {
		return 0
	}
	return w
}

// noteMiss records a demand read miss in the file's stream tracker and,
// once the pattern is sequential (seqThreshold consecutive +1 misses),
// returns the stream so the caller installs into the stream's ring and
// prefetches ahead. Any non-sequential miss resets the tracker and
// releases the ring back to normal replacement. Callers hold the
// exclusive latch.
func (p *Pager) noteMiss(fid FileID, no uint32) *seqStream {
	if p.readaheadWindow() == 0 {
		return nil
	}
	st := p.streams[fid]
	if st == nil {
		st = &seqStream{}
		p.streams[fid] = st
	}
	if st.started && no == st.lastNo+1 {
		st.streak++
	} else {
		st.streak = 0
		st.ring = nil
		st.ringNext = 0
	}
	st.started = true
	st.lastNo = no
	if st.streak < seqThreshold {
		return nil
	}
	if st.ring == nil {
		// Ring capacity 2× the readahead window: enough frames for the
		// in-flight prefetch batch plus the pages the scan just consumed.
		st.ring = make([]ringSlot, 0, 2*p.readaheadWindow())
	}
	return st
}

// installScan places a sequential-stream page into the buffer pool,
// recycling a frame from the stream's own ring when one is available so
// the scan evicts its own trail instead of running the CLOCK hand over
// the hot working set. A ring slot is reusable only if it still holds
// the page the stream put there, clean — otherwise (the hand reassigned
// it, or a write dirtied it) the stream falls back to a normal
// acquisition and takes the frame over. Callers hold the exclusive latch.
func (p *Pager) installScan(st *seqStream, key pageKey, data []byte, prefetch bool) error {
	if i, ok := p.table[key]; ok {
		p.frames[i].data = data
		if !prefetch {
			p.bumpRef(&p.frames[i])
		}
		return nil
	}
	idx := -1
	if len(st.ring) == cap(st.ring) && cap(st.ring) > 0 {
		slot := st.ring[st.ringNext]
		fr := &p.frames[slot.idx]
		if fr.valid && fr.key == slot.key && !fr.dirty {
			if fr.prefetched == 1 {
				p.cRAWasted.Inc()
			}
			delete(p.table, fr.key)
			p.cEvict.Inc()
			p.cEvictScan.Inc()
			idx = slot.idx
		}
	}
	if idx < 0 {
		var err error
		idx, err = p.acquireFrame()
		if err != nil {
			return err
		}
	}
	fr := frame{key: key, data: data, ref: 1, valid: true}
	if prefetch {
		fr.ref = 0
		fr.prefetched = 1
	}
	p.frames[idx] = fr
	p.table[key] = idx
	if len(st.ring) < cap(st.ring) {
		st.ring = append(st.ring, ringSlot{idx: idx, key: key})
	} else if cap(st.ring) > 0 {
		st.ring[st.ringNext] = ringSlot{idx: idx, key: key}
		st.ringNext = (st.ringNext + 1) % cap(st.ring)
	}
	return nil
}

// readahead prefetches the next window pages of a detected stream in one
// batch: each is a disk read installed with its reference bit clear and the
// prefetched flag set, so the stream's own demand reads turn into pool
// hits and unused prefetches are the first frames recycled. Prefetch
// I/O errors are swallowed — readahead is an optimization, never a
// correctness dependency (the demand read that triggered it has already
// succeeded). Callers hold the exclusive latch.
func (p *Pager) readahead(f *file, fid FileID, st *seqStream, no uint32) {
	w := p.readaheadWindow()
	last := no
	for i := 1; i <= w; i++ {
		next := no + uint32(i)
		if next >= uint32(len(f.pages)) {
			break
		}
		if _, ok := p.table[pageKey{fid, next}]; ok {
			continue
		}
		if err := p.diskOp(); err != nil {
			break
		}
		p.cRead.Inc()
		p.cRAIssued.Inc()
		if err := p.installScan(st, pageKey{fid, next}, f.page(next), true); err != nil {
			break
		}
		last = next
	}
	// Advance the stream cursor past the prefetched run: the demand reads
	// that follow are pool hits (never seen by noteMiss), so the next
	// miss at last+1 must still read as sequential.
	if last > st.lastNo {
		st.lastNo = last
	}
}

// writeBack persists one dirty frame, counting a disk write: the frame's
// buffer becomes the page's disk image.
func (p *Pager) writeBack(fr *frame) error {
	if err := p.diskOp(); err != nil {
		return err
	}
	p.cWrite.Inc()
	p.files[fr.key.fid].pages[fr.key.no] = fr.data
	fr.dirty = false
	return nil
}

// Sync writes back every dirty page of one file (the fsync analog: one
// disk write per dirty page). Loading a database of many small files
// syncs per file, which is exactly the per-document I/O that dominates
// DC/MD bulk loading in the paper.
func (p *Pager) Sync(fid FileID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.syncDirty(func(key pageKey) bool { return key.fid == fid })
}

// SyncAll writes back every dirty page of every file.
func (p *Pager) SyncAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.syncDirty(func(pageKey) bool { return true })
}

// syncDirty writes back, in frame order, every dirty frame whose page
// match accepts, visiting only the frames whose dirtied bit is set (a
// superset of the dirty ones), and clears the bit of each frame it leaves
// clean. Callers hold the exclusive latch.
func (p *Pager) syncDirty(match func(pageKey) bool) error {
	if p.down != nil {
		return p.down
	}
	for w, word := range p.dirtied {
		for word != 0 {
			bit := word & -word
			word &^= bit
			fr := &p.frames[w*64+bits.TrailingZeros64(bit)]
			if fr.valid && fr.dirty {
				if !match(fr.key) {
					continue
				}
				if err := p.writeBack(fr); err != nil {
					return err
				}
			}
			if !fr.dirty {
				p.dirtied[w] &^= bit
			}
		}
	}
	return nil
}

// ColdReset flushes dirty pages and empties the buffer pool (the paper's
// cold-run methodology). Disk contents and I/O statistics are preserved.
// The flush is best-effort: on a crashed pager the dirty frames are
// simply dropped, as they would be in a real power loss.
//
// ColdReset takes the exclusive latch, so it quiesces: page reads in
// flight complete first, and reads issued during the reset wait for it.
// With MVCC snapshots it additionally drains pinned snapshots first
// (BlockPins): a pinned reader's page versions must not disappear under
// it, and a reader pinning mid-reset must observe the post-reset state.
//
// Then, before it lets pins through again, it runs what OnColdReset
// registered.
func (p *Pager) ColdReset() {
	p.BlockPins()
	defer p.UnblockPins()
	p.dropPool()
	for _, fn := range p.onCold {
		fn()
	}
}

// dropPool writes back the dirty frames and empties the pool.
func (p *Pager) dropPool() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.flushPool()
	p.clearPool()
}

// flushPool writes back every dirty frame, best-effort: a down pager
// writes nothing, and a crash loses the frames it had not reached.
// Callers hold the exclusive latch.
func (p *Pager) flushPool() {
	if p.down != nil {
		return
	}
	for i := range p.frames {
		if p.frames[i].valid && p.frames[i].dirty {
			_ = p.writeBack(&p.frames[i])
		}
	}
}

// clearPool empties the pool without writing anything back. Callers hold
// the exclusive latch.
func (p *Pager) clearPool() {
	clear(p.frames)
	clear(p.dirtied)
	p.table = make(map[pageKey]int, p.capacity)
	p.hand = 0
	p.streams = make(map[FileID]*seqStream)
}

// OnColdReset registers fn to run inside every later ColdReset, after the
// pool is dropped and while pins are still blocked: a cache of what was
// read through the pool empties with it, and no query can refill it from
// before the drop. Register before the pager is shared; fn must not pin.
func (p *Pager) OnColdReset(fn func()) { p.onCold = append(p.onCold, fn) }

// IO returns the disk operations counted so far, pager.read plus
// pager.write: what an engine's PageIO reports. It takes the latch shared
// only to see which counters are bound, and is safe to call concurrently
// with queries, whose I/O it then includes.
func (p *Pager) IO() int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.cRead.Value() + p.cWrite.Value()
}
