package pager

import (
	"bytes"
	"testing"
)

// TestRecycledBuffers holds the free list (recycled) to what it may
// hand out: pruned pre-images of files that recycle their versions, and
// of those only the ones neither disk nor pool still holds.
func TestRecycledBuffers(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// setup makes a file of two pages, 'a' and 'b', both written back.
	setup := func(recycle bool) (*Pager, FileID) {
		p := New(8)
		p.PoisonRecycled(0xDB)
		f := p.Create("f")
		if recycle {
			p.RecycleVersions(f)
		}
		for range 2 {
			_, err := p.Append(f)
			must(err)
		}
		must(p.Write(f, 0, 0, page('a')))
		must(p.Write(f, 1, 0, page('b')))
		must(p.SyncAll())
		return p, f
	}
	update := func(p *Pager, f FileID, no uint32, b byte, sync bool) {
		t.Helper()
		p.BeginMutation()
		must(p.Write(f, no, 0, page(b)))
		if sync {
			must(p.SyncAll())
		}
		p.EndMutation(nil)
	}
	recycled := func(p *Pager) int64 { return p.Metrics().Counter("pager.recycle").Value() }

	t.Run("a pruned version still on disk is not handed out", func(t *testing.T) {
		p, f := setup(true)
		update(p, f, 0, 'c', false) // 'a' is pruned but still page 0's disk image
		update(p, f, 1, 'd', false)
		if n := recycled(p); n != 0 {
			t.Fatalf("%d writes took a recycled buffer, want 0", n)
		}
		p.mu.RLock()
		disk := p.files[f].page(0)
		p.mu.RUnlock()
		if !bytes.Equal(disk, page('a')) {
			t.Fatalf("page 0's disk image was overwritten: it starts %q", disk[:4])
		}
		// The check dropped 'a'. Once 'd' is written back, 'b', pruned at
		// the last commit, is reachable from nowhere: the next write takes it.
		must(p.SyncAll())
		update(p, f, 0, 'e', true)
		if n := recycled(p); n != 1 {
			t.Fatalf("%d writes took a recycled buffer, want 1", n)
		}
		for no, want := range []byte{'e', 'd'} {
			if pg := mustRead(t, p, f, uint32(no), LiveEpoch); !bytes.Equal(pg, page(want)) {
				t.Fatalf("page %d starts %q, want %q", no, pg[:4], want)
			}
		}
	})

	t.Run("a file that does not recycle keeps its versions out", func(t *testing.T) {
		p, f := setup(false)
		for i := range 4 {
			update(p, f, uint32(i%2), byte('c'+i), true)
		}
		if n := recycled(p); n != 0 {
			t.Fatalf("%d writes took a recycled buffer of a heap-like file, want 0", n)
		}
	})
}
