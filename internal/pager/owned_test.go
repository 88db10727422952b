package pager

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
)

// page returns a whole page filled with b.
func page(b byte) []byte { return bytes.Repeat([]byte{b}, PageSize) }

// sameBuffer reports whether two page slices are one buffer.
func sameBuffer(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// mustRead reads a page as of epoch (LiveEpoch: the current page).
func mustRead(t *testing.T, p *Pager, f FileID, no uint32, epoch uint64) []byte {
	t.Helper()
	pg, err := p.ReadAt(f, no, epoch)
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

// TestWriterPatchesOnlyItsOwnBuffers holds the one exception to "a page
// changes by getting a new buffer" (the package comment): Write patches a
// buffer in place only while the writer phase that installed it is open,
// so no pinned reader, published page version or handed-out slice sees a
// patch, and a per-document load sync allocates nothing.
func TestWriterPatchesOnlyItsOwnBuffers(t *testing.T) {
	// load opens a Load's bracket under BlockPins, runs fn and publishes.
	load := func(p *Pager, fn func()) {
		p.BlockPins()
		p.BeginMutation()
		fn()
		p.EndMutation("loaded")
		p.UnblockPins()
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	t.Run("a bracket patches only what it installed", func(t *testing.T) {
		p := New(8)
		f := p.Create("f")
		load(p, func() {
			_, err := p.Append(f)
			must(err)
			must(p.Write(f, 0, 0, page('a')))
		})
		snap := p.PinSnapshot()
		defer snap.Release()
		held := mustRead(t, p, f, 0, snap.Epoch())

		p.BeginMutation()
		must(p.Write(f, 0, 0, page('b')))
		first := mustRead(t, p, f, 0, LiveEpoch)
		if sameBuffer(first, held) {
			t.Fatal("a bracket's first write of a published page did not install a new buffer")
		}
		must(p.Write(f, 0, 0, append([]byte("c"), make([]byte, PageSize-1)...)))
		if second := mustRead(t, p, f, 0, LiveEpoch); !sameBuffer(second, first) || second[0] != 'c' || second[1] != 0 {
			t.Fatal("a bracket's second write did not patch (and zero-pad) the buffer its first installed")
		}
		if pg := mustRead(t, p, f, 0, snap.Epoch()); !bytes.Equal(pg, page('a')) {
			t.Fatal("a reader pinned before the bracket saw its writes")
		}
		p.EndMutation("c")
		if pg := mustRead(t, p, f, 0, snap.Epoch()); !bytes.Equal(pg, page('a')) || !bytes.Equal(held, page('a')) {
			t.Fatal("a reader pinned before the bracket saw its writes after the commit")
		}

		// The next bracket: the published buffer is a page version now.
		published := mustRead(t, p, f, 0, LiveEpoch)
		want := bytes.Clone(published)
		p.BeginMutation()
		must(p.Write(f, 0, 0, page('d')))
		if sameBuffer(mustRead(t, p, f, 0, LiveEpoch), published) {
			t.Fatal("the next bracket's first write patched the published buffer")
		}
		p.EndMutation("d")
		if !bytes.Equal(published, want) {
			t.Fatal("a slice of the published buffer changed under the next bracket")
		}
	})

	t.Run("outside a load or bracket Write copies", func(t *testing.T) {
		p := New(8)
		f := p.Create("f")
		_, err := p.Append(f)
		must(err)
		must(p.Write(f, 0, 0, page('a')))
		held := mustRead(t, p, f, 0, LiveEpoch)
		must(p.Write(f, 0, 0, page('b')))
		must(p.Write(f, 0, 0, page('c')))
		if !bytes.Equal(held, page('a')) {
			t.Fatal("a Read slice held across two unbracketed Writes changed")
		}
		// A load's or a bracket's buffers stop being the writer's once it
		// publishes.
		load(p, func() { must(p.Write(f, 0, 0, page('d'))) })
		held = mustRead(t, p, f, 0, LiveEpoch)
		must(p.Write(f, 0, 0, page('e')))
		if !bytes.Equal(held, page('d')) {
			t.Fatal("a Write after the load's publication patched the load's buffer")
		}
		p.BeginMutation()
		must(p.Write(f, 0, 0, page('f')))
		p.EndMutation("f")
		held = mustRead(t, p, f, 0, LiveEpoch)
		must(p.Write(f, 0, 0, page('g')))
		if !bytes.Equal(held, page('f')) {
			t.Fatal("a Write after the bracket's commit patched the bracket's buffer")
		}
	})

	t.Run("a load's per-document flush allocates nothing", func(t *testing.T) {
		p := New(8)
		h := NewHeap(p, "h")
		rec := []byte("a small record")
		flush := func() {
			mustInsert(t, h, rec)
			must(h.Sync())
		}
		var inLoad float64
		load(p, func() {
			flush() // appends the tail page
			inLoad = testing.AllocsPerRun(100, flush)
		})
		if inLoad != 0 {
			t.Fatalf("inside a load a per-document Heap.Sync of one tail page allocates %.1f objects", inLoad)
		}
		if outside := testing.AllocsPerRun(100, flush); outside < 1 {
			t.Fatalf("outside a load a Heap.Sync allocates %.1f objects: Write patched a published buffer", outside)
		}
	})

	t.Run("a sync crashes where a full frame scan would", func(t *testing.T) {
		// build leaves a pool of 8 frames in a load's middle: some frames
		// dirty, some clean, some dirtied and since evicted or synced by
		// file, pages of three files in no frame order. It counts the
		// writes that found their page dirty in the pool (appended or
		// written in the bracket, not written back since), and those of
		// them that patched that frame's buffer, as a load's writes do.
		var dirtied, patched int
		build := func() *Pager {
			p := New(8)
			p.SetFaultPolicy(FaultPolicy{}) // start the disk-op clock
			p.BlockPins()
			p.BeginMutation()
			dirtied, patched = 0, 0
			var fids []FileID
			for _, name := range []string{"a", "b", "c"} {
				fids = append(fids, p.Create(name))
			}
			for i := 0; i < 60; i++ {
				f := fids[(i*7)%3]
				if i%5 == 0 || p.NumPages(f) == 0 {
					_, err := p.Append(f)
					must(err)
				}
				no := uint32(i*11) % p.NumPages(f)
				if i%4 == 3 {
					_, err := p.Read(f, no)
					must(err)
				} else {
					var buf []byte
					if fr, ok := p.table[pageKey{f, no}]; ok && p.frames[fr].dirty {
						buf = p.frames[fr].data
					}
					must(p.Write(f, no, 0, page(byte(i))))
					if buf != nil {
						dirtied++
						if sameBuffer(p.frames[p.table[pageKey{f, no}]].data, buf) {
							patched++
						}
					}
				}
				if i%9 == 8 {
					must(p.Sync(fids[i%3]))
				}
			}
			return p
		}
		// dirty lists the dirty frames in frame order: what the full scan
		// the sync replaced wrote back, one disk op each.
		dirty := func(p *Pager) []pageKey {
			var keys []pageKey
			for i := range p.frames {
				if p.frames[i].valid && p.frames[i].dirty {
					keys = append(keys, p.frames[i].key)
				}
			}
			return keys
		}
		built := build()
		if dirtied == 0 || patched != dirtied {
			t.Fatalf("%d of %d writes to dirty pages patched their frame's buffer, want all of at least one", patched, dirtied)
		}
		all := dirty(built)
		stale := 0 // frames a sync will visit that are clean
		for i := range built.frames {
			if built.dirtied[i/64]&(1<<(i%64)) != 0 && !built.frames[i].dirty {
				stale++
			}
		}
		if len(all) < 3 || stale == 0 || built.cEvictDirty.Value() == 0 {
			t.Fatalf("%d dirty frames, %d clean ones marked, %d dirty evictions: the state does not exercise the sync",
				len(all), stale, built.cEvictDirty.Value())
		}
		for k := 0; k <= len(all); k++ {
			p := build()
			at := p.OpCount() + int64(k)
			p.SetFaultPolicy(FaultPolicy{CrashAfterOps: at})
			err := p.SyncAll()
			if k < len(all) && !errors.Is(err, ErrCrashed) || k == len(all) && err != nil {
				t.Fatalf("crash after %d of %d write-backs: SyncAll returned %v", k, len(all), err)
			}
			if n := p.OpCount(); n != at {
				t.Fatalf("crash after %d write-backs: the clock reads %d, want %d", k, n, at)
			}
			p.mu.Lock()
			for i, key := range all {
				fr := &p.frames[p.table[key]]
				if written := !fr.dirty; written != (i < k) {
					t.Fatalf("crash after %d write-backs: frame-order dirty page %d (%v) written back: %v", k, i, key, written)
				}
			}
			p.mu.Unlock()
		}
	})
}

// TestHeapFillsThePoolsTailPage: a heap keeps no page of its own. It
// writes its records into the page Append installed in the pool, so
// filling a page inside a writer phase allocates that one buffer, not a
// private copy beside it; the live heap reads a record the moment it is
// written, and a view pinned at the epoch before the bracket sees none of
// what the bracket wrote into the page it shares with it.
func TestHeapFillsThePoolsTailPage(t *testing.T) {
	ctx := context.Background()
	p := New(256) // holds every page: nothing is evicted and read back
	h := NewHeap(p, "h")
	epoch := p.BeginMutation()
	mustInsert(t, h, []byte("published"))
	p.EndMutation(h.View(epoch))
	snap := p.PinSnapshot()
	defer snap.Release()
	pinned := snap.View().(HeapView)

	epoch = p.BeginMutation()
	rec := bytes.Repeat([]byte{'r'}, PageSize/8-4)
	fill := func() { // a page's worth of records: one Append each time
		for range 8 {
			mustInsert(t, h, rec)
		}
	}
	const k = 64
	if perPage := testing.AllocsPerRun(k, fill); perPage != 1 {
		t.Fatalf("filling %d heap pages allocates %.0f objects a page, want the one page buffer", k, perPage)
	}
	tail := mustInsert(t, h, []byte("just written"))
	if got, err := h.Live().Get(ctx, tail, nil); err != nil || string(got) != "just written" {
		t.Fatalf("live Get of the tail record = %q, %v", got, err)
	}
	check := func(when string) {
		t.Helper()
		if _, recs := scanAll(t, pinned); len(recs) != 1 || recs[0] != "published" {
			t.Fatalf("%s: the view pinned before the bracket scans %q", when, recs)
		}
		if _, err := pinned.Get(ctx, tail, nil); err == nil {
			t.Fatalf("%s: the view pinned before the bracket reads the tail record", when)
		}
		if pg := mustRead(t, p, h.fid, 0, snap.Epoch()); !bytes.Equal(pg[4+len("published"):], make([]byte, PageSize-4-len("published"))) {
			t.Fatalf("%s: page 0 as of the pinned epoch holds the bracket's bytes", when)
		}
	}
	check("inside the bracket")
	p.EndMutation(h.View(epoch))
	check("after the commit")
	if n := h.View(epoch).Count(); n != 2+8*(k+1) {
		t.Fatalf("the committed view counts %d records, want %d", n, 2+8*(k+1))
	}
}

// TestAppendedPageEvictedInsideTheBracket holds a page a bracket appends:
// it did not exist at any pinned epoch, so it needs no pre-image, and
// Write patches it in place while the bracket's writer phase owns its
// buffer. Once a four-page pool evicts it, the next write of it reaches
// the copy path and captures its evicted image as a version, which no
// reader reaches: a view pinned before the bracket has an extent that
// ends before the page. That view still reads its extent byte for byte,
// a reader after the commit reads the last write, and the version is
// pruned once no pin is held.
func TestAppendedPageEvictedInsideTheBracket(t *testing.T) {
	ctx := context.Background()
	p := New(4)
	h := NewHeap(p, "h")
	epoch := p.BeginMutation()
	mustInsert(t, h, []byte("published"))
	mustInsert(t, h, bytes.Repeat([]byte{'p'}, PageSize))
	p.EndMutation(h.View(epoch))
	snap := p.PinSnapshot()
	pinned := snap.View().(HeapView)
	extent := func() []byte {
		var b []byte
		for no := uint32(0); uint64(no)*PageSize < pinned.end; no++ {
			b = append(b, mustRead(t, p, h.fid, no, snap.Epoch())...)
		}
		return b[:pinned.end]
	}
	before := extent()
	cached := func(no uint32) bool {
		p.mu.RLock()
		defer p.mu.RUnlock()
		_, ok := p.table[pageKey{h.fid, no}]
		return ok
	}

	epoch = p.BeginMutation()
	first := p.NumPages(h.fid) // the first page the bracket appends
	_, want := scanAll(t, h.Live())
	var onFirst RID
	var at int // onFirst's place in want
	for i := 0; p.NumPages(h.fid) <= first || cached(first); i++ {
		if i == 64 {
			t.Fatalf("page %d is still in the pool after 64 appends", first)
		}
		rec := bytes.Repeat([]byte{'a' + byte(i)}, PageSize/2-4)
		if rid := mustInsert(t, h, rec); uint64(rid)/PageSize == uint64(first) {
			onFirst, at = rid, len(want)
		}
		want = append(want, string(rec))
	}
	if err := h.Delete(ctx, onFirst); err != nil {
		t.Fatal(err)
	}
	last := bytes.Repeat([]byte{'Z'}, PageSize/2-4)
	if rid := mustInsert(t, h, last); rid != onFirst {
		t.Fatalf("the rewrite landed at %d, want the dead extent at %d", rid, onFirst)
	}
	want[at] = string(last)
	p.mvcc.mu.Lock()
	captured := len(p.mvcc.versions[pageKey{h.fid, first}])
	p.mvcc.mu.Unlock()
	if captured != 1 {
		t.Fatalf("the write after the eviction captured %d versions of page %d, want 1", captured, first)
	}
	if !bytes.Equal(extent(), before) {
		t.Fatal("inside the bracket, the view pinned before it reads other bytes in its extent")
	}
	p.EndMutation(h.View(epoch))
	if !bytes.Equal(extent(), before) {
		t.Fatal("after the commit, the view pinned before the bracket reads other bytes in its extent")
	}
	after := p.PinSnapshot()
	if got, err := after.View().(HeapView).Get(ctx, onFirst, nil); err != nil || !bytes.Equal(got, last) {
		t.Fatalf("a reader after the commit reads %.8q, %v at %d, want the last write", got, err, onFirst)
	}
	if _, got := scanAll(t, after.View().(HeapView)); fmt.Sprintf("%.8q", got) != fmt.Sprintf("%.8q", want) {
		t.Fatalf("a reader after the commit scans %.8q, want %.8q", got, want)
	}
	snap.Release()
	after.Release()
	if n := p.LiveVersions(); n != 0 {
		t.Fatalf("%d page versions retained with no pin held, want 0", n)
	}
}
