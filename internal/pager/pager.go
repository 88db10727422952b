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
// run ... to prevent caching effects" methodology.
//
// Latching: the pool is guarded by one reader/writer latch. Pool hits —
// the overwhelmingly common case for warm multi-client workloads — take
// the latch shared, so concurrent readers proceed in parallel; misses,
// writes, syncs and ColdReset take it exclusive. I/O events are counted
// once, in the counters of the pager's metrics registry: Stats (and the
// engines' PageIO) is a read of seven of them, and a pool hit costs one
// atomic add. The GCLOCK reference count is bumped with an atomic CAS under
// the shared latch; all other frame state changes happen under the
// exclusive latch.
//
// Eviction (DESIGN.md §13): the pool is scan-resistant. Replacement is
// GCLOCK — a CLOCK hand over per-frame reference *counts* capped at
// maxRef, so repeatedly-hit pages survive several hand sweeps (ARC-style
// frequency protection) while one-touch pages decay to victims in one.
// On top of that, consecutive read misses on a file are detected as a
// sequential stream: stream pages recycle a small ring of frames the
// stream itself owns instead of running the hand, so a one-pass scan of
// a file larger than the pool evicts its own previous pages and leaves
// the hot working set alone — and each detected stream prefetches the
// next ReadaheadWindow pages in one batch, so the scan's demand reads
// become pool hits.
//
// Page buffers (DESIGN.md §13): one immutable buffer per page version,
// shared by disk, pool, snapshot and reader. A page changes only by
// getting a new buffer — Write copies the caller's bytes into one,
// WriteOwned takes one its caller built and gives up, Truncate drops the
// slots — and no buffer is written to once the pager holds it. So nothing
// is copied between the layers: a write-back stores the frame's buffer as
// the disk image, a read miss or a readahead installs the disk image in
// the frame, an MVCC pre-image is the buffer its write replaced, and Read
// hands out the frame's buffer; a reader holding one holds that version of
// the page for as long as it likes. No read copies.
package pager

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xbench/internal/metrics"
)

// PageSize is the simulated page size in bytes.
const PageSize = 8192

// FileID identifies a paged file within a Pager.
type FileID uint32

// Stats accumulates simulated I/O counters.
type Stats struct {
	// Reads counts page reads that missed the buffer pool (disk reads).
	Reads int64
	// Writes counts page writes to disk (eviction, sync, cold flush).
	Writes int64
	// Hits counts page reads served from the buffer pool.
	Hits int64
	// ReadFaults counts injected transient read faults (fault.go).
	ReadFaults int64
	// ReadRetries counts retry attempts made after transient read faults.
	ReadRetries int64
	// Prefetched counts pages read ahead of demand by sequential-stream
	// readahead. They are disk reads (already included in Reads).
	Prefetched int64
	// PrefetchHits counts demand reads served by a prefetched frame.
	PrefetchHits int64
}

// IO returns total disk operations (reads + writes).
func (s Stats) IO() int64 { return s.Reads + s.Writes }

// Pager owns a set of simulated files and a shared buffer pool.
// It is safe for concurrent use: reads that hit the pool share the
// latch; everything that changes pool structure is exclusive.
type Pager struct {
	mu    sync.RWMutex
	files map[FileID]*file
	next  FileID

	// buffer pool (GCLOCK replacement, write-back)
	capacity int
	frames   []frame
	table    map[pageKey]int // pageKey -> frame index
	hand     int

	// scan resistance + readahead (see the package comment)
	streams map[FileID]*seqStream

	// fault injection (fault.go); nil when the disk is perfect.
	fault *faultState
	// closed is set by Close; every subsequent file operation fails with
	// ErrClosed.
	closed bool
	// onCold is what ColdReset runs after the pool drop, still quiesced
	// (OnColdReset).
	onCold []func()

	// reg holds the pager's event counters, each event counted exactly
	// once: Stats reads the seven it reports from here. The cached pointers
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
	cReadFault  *metrics.Counter // pager.read.fault: injected transient faults
	cReadRetry  *metrics.Counter // pager.read.retry: retry attempts
	cHeapDead   *metrics.Counter // pager.heap.tombstone: heap records deleted in place
	cHeapReuse  *metrics.Counter // pager.heap.reuse: inserts placed in a dead extent

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
	// ref is the GCLOCK reference count, capped at maxRef.
	// It and prefetched are the two frame fields touched under the shared
	// latch (atomically, by concurrent pool hits); the exclusive latch
	// covers every other access.
	ref uint32
	// prefetched is 1 while the frame holds a readahead page no demand
	// read has consumed yet (cleared atomically by the first hit).
	prefetched uint32
	dirty      bool
	valid      bool
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

// maxRef is the GCLOCK reference-count cap: a page must be missed by the
// hand this many times before it is evictable, so the hot working set
// survives several full sweeps.
const maxRef = 3

// seqThreshold is the number of consecutive +1-page read misses that
// promotes a file's access pattern to a detected sequential stream.
const seqThreshold = 3

// SetMetrics replaces the registry New bound: every subsequent disk read,
// write, pool hit, eviction and fault retry is counted under
// "pager.*" names in reg, and Stats reads them there — call it before
// the pager does I/O, or Stats restarts from reg's values. Pagers that
// share one registry share those counters, so each one's Stats is the
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
	p.cReadFault = reg.Counter("pager.read.fault")
	p.cReadRetry = reg.Counter("pager.read.retry")
	p.cHeapDead = reg.Counter("pager.heap.tombstone")
	p.cHeapReuse = reg.Counter("pager.heap.reuse")
	p.setSnapMetrics(reg)
}

// heapCounters returns the counters a Heap bumps on Delete and on an
// Insert that reuses a dead extent. Heaps outlive SetMetrics calls (the
// facade's WithMetrics rebinds after the engine built its heaps), so
// they ask the pager each time instead of caching.
func (p *Pager) heapCounters() (tombstone, reuse *metrics.Counter) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.cHeapDead, p.cHeapReuse
}

// Metrics returns the registry the pager counts into.
func (p *Pager) Metrics() *metrics.Registry {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.reg
}

// ErrClosed is returned by file operations on a pager after Close.
var ErrClosed = fmt.Errorf("pager: closed")

// Create makes a new empty file and returns its id. On a closed pager it
// returns an unregistered id whose operations fail with "unknown file".
func (p *Pager) Create(name string) FileID {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := p.next
	p.next++
	if p.closed {
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
	if p.closed {
		return nil
	}
	for i := range p.frames {
		if p.frames[i].valid && p.frames[i].dirty {
			_ = p.writeBack(&p.frames[i]) // best-effort, like ColdReset
		}
	}
	p.closed = true
	p.files = make(map[FileID]*file)
	p.frames = nil
	p.table = nil
	p.streams = nil
	p.fault = nil
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

// Truncate discards all pages of a file, including cached ones. While
// crashed it fails: a dead machine cannot clean up after itself.
func (p *Pager) Truncate(fid FileID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	f, ok := p.files[fid]
	if !ok {
		return fmt.Errorf("pager: unknown file %d", fid)
	}
	if p.fault != nil && p.fault.crashed {
		return ErrCrashed
	}
	// Inside a mutation bracket, every discarded page is a pre-image a
	// pinned snapshot may still need. (Deletes are in place now, so the
	// engines truncate only at Load, outside any bracket; a caller that
	// does truncate inside one still gets snapshot-safe behaviour.)
	if p.mutationActive() {
		for no := uint32(0); no < uint32(len(f.pages)); no++ {
			key := pageKey{fid, no}
			p.capture(key, p.preImage(f, key))
		}
	}
	f.pages = nil
	for i := range p.frames {
		if p.frames[i].valid && p.frames[i].key.fid == fid {
			delete(p.table, p.frames[i].key)
			p.frames[i] = frame{}
		}
	}
	delete(p.streams, fid)
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
	if p.closed {
		return 0, ErrClosed
	}
	f, ok := p.files[fid]
	if !ok {
		return 0, fmt.Errorf("pager: unknown file %d", fid)
	}
	if p.fault != nil && p.fault.crashed {
		return 0, ErrCrashed
	}
	no := uint32(len(f.pages))
	f.pages = append(f.pages, nil) // reserve the slot; data arrives on write-back
	if err := p.install(pageKey{fid, no}, make([]byte, PageSize), true); err != nil {
		return 0, err
	}
	p.noteAppend(pageKey{fid, no})
	return no, nil
}

// Read returns the content of a page. By default the returned slice is
// the page version's one buffer (see the package comment): the pool
// frame's, which is also the page's disk image once it was read or
// written back, and the pre-image any later write captures for a
// snapshot. Callers must treat it as read-only and use Write or
// WriteOwned to change pages — mutating the returned slice corrupts the
// pool, the simulated disk and every snapshot of the page at once.
//
// Concurrent readers of a returned slice are safe even across eviction:
// page buffers are replaced wholesale, never mutated in place, so a
// reader holds a consistent (possibly superseded) version of the page.
// The B+tree relies on exactly that: it walks the cells of the returned
// slice without decoding them, keeps it across the writes of a split
// further down, and builds each successor page in a fresh buffer.
//
// Transient read faults are retried internally with exponential backoff,
// up to MaxReadAttempts attempts; the retries are counted in Stats. A
// page that faults on every attempt returns a fatal ErrReadFault.
func (p *Pager) Read(fid FileID, no uint32) ([]byte, error) {
	for attempt := 1; ; attempt++ {
		data, err := p.readOnce(fid, no)
		if err == nil || !IsTransient(err) {
			return data, err
		}
		if attempt >= MaxReadAttempts {
			return nil, fmt.Errorf("pager: file %d page %d: %w (%d attempts)",
				fid, no, ErrReadFault, attempt)
		}
		p.retryBackoff(attempt)
	}
}

// readOnce performs one read attempt through the buffer pool: a hit is
// served under the shared latch; a miss upgrades to the exclusive latch
// (re-checking the table, since another reader may have installed the
// page in the window) and fetches from disk.
func (p *Pager) readOnce(fid FileID, no uint32) ([]byte, error) {
	key := pageKey{fid, no}

	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return nil, ErrClosed
	}
	if p.fault != nil && p.fault.crashed {
		p.mu.RUnlock()
		return nil, ErrCrashed // even pool hits: the machine is down
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
	if p.fault != nil && p.fault.crashed {
		return nil, ErrCrashed
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
	if err := p.diskOp(opRead); err != nil {
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

// bumpRef increments a frame's GCLOCK reference count (capped at
// maxRef) and consumes its prefetched flag, counting a readahead hit the
// first time a demand read lands on a prefetched page. Callers hold at
// least the shared latch, so the frame fields are touched atomically
// (concurrent hits race on them).
func (p *Pager) bumpRef(fr *frame) {
	for {
		r := atomic.LoadUint32(&fr.ref)
		if r >= maxRef {
			break
		}
		if atomic.CompareAndSwapUint32(&fr.ref, r, r+1) {
			break
		}
	}
	if atomic.SwapUint32(&fr.prefetched, 0) == 1 {
		p.cRAHit.Inc()
	}
}

// Write replaces the content of an existing page in the pool, marking it
// dirty (write-back: no disk write is counted yet). data longer than
// PageSize is an error; shorter data is zero-padded. data is copied, so
// the caller keeps its buffer.
func (p *Pager) Write(fid FileID, no uint32, data []byte) error {
	if len(data) > PageSize {
		return fmt.Errorf("pager: write of %d bytes exceeds page size", len(data))
	}
	pg := make([]byte, PageSize)
	copy(pg, data)
	return p.WriteOwned(fid, no, pg)
}

// WriteOwned is Write without the copy: pg, exactly PageSize bytes,
// becomes the page's pool buffer. Ownership transfers with the call — the
// buffer is from then on what Read aliases, what a write-back stores as
// the disk image and what a later write captures as the MVCC pre-image,
// so the caller must not touch it again. It is for writers that already
// build the successor page in a fresh buffer (B+tree nodes, a patched
// heap page) and would otherwise have it copied a second time.
func (p *Pager) WriteOwned(fid FileID, no uint32, pg []byte) error {
	if len(pg) != PageSize {
		return fmt.Errorf("pager: owned write of %d bytes is not a whole page", len(pg))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	f, ok := p.files[fid]
	if !ok || no >= uint32(len(f.pages)) {
		return fmt.Errorf("pager: write beyond end of file %d page %d", fid, no)
	}
	if p.fault != nil && p.fault.crashed {
		return ErrCrashed
	}
	key := pageKey{fid, no}
	if p.mutationActive() {
		p.capture(key, p.preImage(f, key))
	}
	return p.install(key, pg, true)
}

// install places a page into the buffer pool, evicting with GCLOCK and
// writing back the victim if dirty. It fails only when the eviction
// write-back does (crash); the pool is left unchanged then. Callers hold
// the exclusive latch, so frame fields may be accessed plainly here.
func (p *Pager) install(key pageKey, data []byte, dirty bool) error {
	if i, ok := p.table[key]; ok {
		p.frames[i].data = data
		p.bumpRef(&p.frames[i])
		p.frames[i].dirty = p.frames[i].dirty || dirty
		return nil
	}
	idx, err := p.acquireFrame()
	if err != nil {
		return err
	}
	p.frames[idx] = frame{key: key, data: data, ref: 1, dirty: dirty, valid: true}
	p.table[key] = idx
	return nil
}

// acquireFrame runs the GCLOCK hand to a victim frame, writes back a
// dirty victim, evicts it, and returns the now-free frame index. The
// hand decrements each nonzero reference count it passes, so a page at
// maxRef survives maxRef full sweeps without a hit. Callers hold the
// exclusive latch.
func (p *Pager) acquireFrame() (int, error) {
	for {
		fr := &p.frames[p.hand]
		if !fr.valid {
			break
		}
		if fr.ref != 0 {
			fr.ref--
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
// the scan evicts its own trail instead of running the GCLOCK hand over
// the hot working set. A ring slot is reusable only if it still holds
// the page the stream put there, clean and at most once-referenced —
// otherwise (the hand reassigned it, or another query is keeping it hot)
// the stream falls back to a normal acquisition and takes the frame
// over. Callers hold the exclusive latch.
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
		if fr.valid && fr.key == slot.key && fr.ref <= 1 && !fr.dirty {
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
// batch: each is a disk read installed at reference count 0 with the
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
		if err := p.diskOp(opRead); err != nil {
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
	f := p.files[fr.key.fid]
	if f == nil || fr.key.no >= uint32(len(f.pages)) {
		return nil // file truncated underneath the frame
	}
	if err := p.diskOp(opWrite); err != nil {
		return err
	}
	p.cWrite.Inc()
	f.pages[fr.key.no] = fr.data
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
	if p.closed {
		return ErrClosed
	}
	for i := range p.frames {
		if p.frames[i].valid && p.frames[i].dirty && p.frames[i].key.fid == fid {
			if err := p.writeBack(&p.frames[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// SyncAll writes back every dirty page of every file.
func (p *Pager) SyncAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	for i := range p.frames {
		if p.frames[i].valid && p.frames[i].dirty {
			if err := p.writeBack(&p.frames[i]); err != nil {
				return err
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
	for i := range p.frames {
		if p.frames[i].valid && p.frames[i].dirty {
			_ = p.writeBack(&p.frames[i]) // best-effort; crash loses the frame
		}
		p.frames[i] = frame{}
	}
	p.table = make(map[pageKey]int, p.capacity)
	p.hand = 0
	p.streams = make(map[FileID]*seqStream)
}

// OnColdReset registers fn to run inside every later ColdReset, after the
// pool is dropped and while pins are still blocked: a cache of what was
// read through the pool empties with it, and no query can refill it from
// before the drop. Register before the pager is shared; fn must not pin.
func (p *Pager) OnColdReset(fn func()) { p.onCold = append(p.onCold, fn) }

// Stats returns the accumulated I/O counters. It takes the latch shared
// only to see which counters are bound, and is safe to call concurrently
// with queries; the fields are read individually, so a snapshot taken
// mid-operation may be skewed by the op in flight.
func (p *Pager) Stats() Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return Stats{
		Reads:        p.cRead.Value(),
		Writes:       p.cWrite.Value(),
		Hits:         p.cHit.Value(),
		ReadFaults:   p.cReadFault.Value(),
		ReadRetries:  p.cReadRetry.Value(),
		Prefetched:   p.cRAIssued.Value(),
		PrefetchHits: p.cRAHit.Value(),
	}
}

// ResetStats zeroes the counters Stats reports (e.g. between benchmark
// phases).
func (p *Pager) ResetStats() {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, c := range []*metrics.Counter{p.cRead, p.cWrite, p.cHit, p.cReadFault, p.cReadRetry,
		p.cRAIssued, p.cRAHit} {
		c.Set(0)
	}
}
