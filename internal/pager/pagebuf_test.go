package pager

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// The page-buffer contract (the package comment): one immutable buffer
// per page version, shared by disk, pool, snapshot and reader.

// onDisk reports whether pg is the simulated disk's image of the page
// itself, not a copy of it.
func onDisk(p *Pager, fid FileID, no uint32, pg []byte) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	img := p.files[fid].page(no)
	return len(pg) == PageSize && &pg[0] == &img[0]
}

// TestOneBufferPerPageVersion: a read miss and a readahead prefetch
// install the disk image in the pool without a copy; no writer writes
// into a buffer once it was handed out; pinned readers see their own
// epoch across a writer and ColdReset.
func TestOneBufferPerPageVersion(t *testing.T) {
	t.Run("a miss and a prefetch hand out the disk image", func(t *testing.T) {
		const pages = 64
		p := New(16) // readahead window 4
		f := buildFile(t, p, "f", pages)
		p.ColdReset()
		p.ResetStats()
		for no := uint32(0); no < pages; no++ {
			pg, err := p.Read(f, no)
			if err != nil {
				t.Fatal(err)
			}
			if !onDisk(p, f, no, pg) {
				t.Fatalf("cold read of page %d returned a copy of its disk image", no)
			}
		}
		if s := p.Stats(); s.Prefetched == 0 || s.PrefetchHits == 0 {
			t.Fatalf("the scan prefetched %d pages, %d of them hit: readahead was not exercised", s.Prefetched, s.PrefetchHits)
		}
		// What a cold pass allocates does not grow with the pages it reads
		// from disk, sequentially (misses and prefetches) or not (misses).
		pass := func(n, stride int) float64 {
			return testing.AllocsPerRun(20, func() {
				p.ColdReset()
				for i := 0; i < n; i++ {
					if _, err := p.Read(f, uint32(i*stride%pages)); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
		for _, stride := range []int{1, 3} {
			if short, long := pass(16, stride), pass(pages, stride); short != long {
				t.Fatalf("a cold pass at stride %d allocates %.0f objects over 16 pages, %.0f over %d: a miss allocates a page buffer",
					stride, short, long, pages)
			}
		}
	})

	t.Run("a slot never written back reads as the shared zero page", func(t *testing.T) {
		p := New(8)
		f := p.Create("f")
		// A reserved slot whose page never reached the pool or the disk.
		p.mu.Lock()
		p.files[f].pages = append(p.files[f].pages, nil)
		p.mu.Unlock()
		pg, err := p.Read(f, 0)
		if err != nil {
			t.Fatal(err)
		}
		if &pg[0] != &zeroPage[0] {
			t.Fatal("a page slot never written back did not read as zeroPage")
		}
	})

	t.Run("no writer changes an image it did not own", func(t *testing.T) {
		ctx := context.Background()
		p := New(8) // reads alias, so a write into a held buffer would show
		f := fillPages(t, p, "f", 6)
		h := NewHeap(p, "h")
		var rids []RID
		for i := 0; i < 120; i++ {
			rids = append(rids, mustInsert(t, h, bytes.Repeat([]byte{byte(i)}, 300)))
		}
		if err := h.Sync(); err != nil {
			t.Fatal(err)
		}
		// Every page image read before each step, and a copy of it; the
		// images of earlier steps stay held through the later ones.
		var held, want [][]byte
		hold := func() {
			p.ColdReset()
			for _, fid := range []FileID{f, h.fid} {
				for no := uint32(0); no < p.NumPages(fid); no++ {
					pg, err := p.Read(fid, no)
					if err != nil {
						t.Fatal(err)
					}
					if !onDisk(p, fid, no, pg) {
						t.Fatalf("file %d page %d: a cold read returned a copy", fid, no)
					}
					held = append(held, pg)
					want = append(want, bytes.Clone(pg))
				}
			}
		}
		steps := []struct {
			name string
			do   func() error
		}{
			{"Write", func() error { return p.Write(f, 0, []byte("rewritten")) }},
			{"WriteOwned", func() error { return p.WriteOwned(f, 1, bytes.Repeat([]byte{0xAB}, PageSize)) }},
			{"Heap.overwrite (Delete)", func() error { return h.Delete(ctx, rids[3]) }},
			{"Heap.overwrite (reuse)", func() error { _, err := h.Insert(bytes.Repeat([]byte{0xCD}, 300)); return err }},
			{"Truncate", func() error { return p.Truncate(f) }},
		}
		for _, s := range steps {
			hold()
			if err := s.do(); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			if err := p.SyncAll(); err != nil { // and every write-back it dirtied
				t.Fatal(err)
			}
			p.ColdReset()
			for i := range held {
				if !bytes.Equal(held[i], want[i]) {
					t.Fatalf("%s changed a page image handed out before it (image %d)", s.name, i)
				}
			}
		}
	})

	t.Run("pinned readers see their own epoch across a writer and ColdReset", func(t *testing.T) {
		const pages = 24
		rounds := 60
		if testing.Short() {
			rounds = 20
		}
		p := New(8) // a third of the file: reads miss, evict and prefetch
		f := p.Create("f")
		// Every page of epoch e is filled with the byte e, which is also
		// the view the epoch's commit publishes.
		stamp := func(e byte) error {
			for no := uint32(0); no < pages; no++ {
				pg := bytes.Repeat([]byte{e}, PageSize)
				if err := p.WriteOwned(f, no, pg); err != nil {
					return err
				}
			}
			return nil
		}
		for no := 0; no < pages; no++ {
			if _, err := p.Append(f); err != nil {
				t.Fatal(err)
			}
		}
		if err := stamp(0); err != nil {
			t.Fatal(err)
		}
		p.AdvanceEpoch(byte(0))

		var done atomic.Bool
		var wrong atomic.Int64
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !done.Load() {
					snap := p.PinSnapshot()
					e := snap.View().(byte)
					var kept [][]byte
					for no := uint32(0); no < pages; no++ {
						pg, err := p.ReadAt(f, no, snap.Epoch())
						if err != nil || pg[0] != e || pg[PageSize-1] != e {
							wrong.Add(1)
						}
						kept = append(kept, pg)
						runtime.Gosched()
					}
					snap.Release()
					// What a pin read stays that epoch's after the pin is gone.
					for _, pg := range kept {
						if bytes.Count(pg, []byte{e}) != PageSize {
							wrong.Add(1)
						}
					}
				}
			}()
		}
		var werr error
		for r := 1; r <= rounds && werr == nil; r++ {
			p.BeginMutation()
			werr = stamp(byte(r))
			p.EndMutation(byte(r))
			if r%3 == 0 {
				p.ColdReset()
			}
		}
		done.Store(true)
		wg.Wait()
		if werr != nil {
			t.Fatal(werr)
		}
		if n := wrong.Load(); n > 0 {
			t.Fatalf("%d reads under a pin saw another epoch's bytes", n)
		}
	})
}
