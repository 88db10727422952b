package pager

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"testing/quick"
)

func TestCreateAppendReadWrite(t *testing.T) {
	p := New(4)
	f := p.Create("t")
	no, err := p.Append(f)
	if err != nil || no != 0 {
		t.Fatalf("Append = %d, %v", no, err)
	}
	data := bytes.Repeat([]byte("x"), 100)
	if err := p.Write(f, no, 0, data); err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(f, no)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:100], data) {
		t.Fatal("read-back mismatch")
	}
	if len(got) != PageSize {
		t.Fatalf("page size %d", len(got))
	}
}

func TestReadWriteErrors(t *testing.T) {
	p := New(4)
	f := p.Create("t")
	if _, err := p.Read(f, 0); err == nil {
		t.Fatal("read beyond EOF succeeded")
	}
	if err := p.Write(f, 5, 0, nil); err == nil {
		t.Fatal("write beyond EOF succeeded")
	}
	if err := p.Write(f, 0, 0, make([]byte, PageSize+1)); err == nil {
		t.Fatal("oversized write succeeded")
	}
	if _, err := p.Append(FileID(99)); err == nil {
		t.Fatal("append to unknown file succeeded")
	}
	if _, err := p.Read(FileID(99), 0); err == nil {
		t.Fatal("read of unknown file succeeded")
	}
}

func TestBufferPoolHitsAndEviction(t *testing.T) {
	p := New(2) // tiny pool
	f := p.Create("t")
	for i := 0; i < 4; i++ {
		no, _ := p.Append(f)
		p.Write(f, no, 0, []byte{byte(i)})
	}
	p.ColdReset()
	mark := p.Metrics().Snapshot()

	p.Read(f, 0) // miss
	p.Read(f, 0) // hit
	s := p.Metrics().Snapshot().Delta(mark)
	if s.Get("pager.read") != 1 || s.Get("pager.hit") != 1 {
		t.Fatalf("reads=%d hits=%d", s.Get("pager.read"), s.Get("pager.hit"))
	}
	// Touch enough pages to evict page 0 from the 2-frame pool.
	p.Read(f, 1)
	p.Read(f, 2)
	p.Read(f, 3)
	mark = p.Metrics().Snapshot()
	p.Read(f, 0)
	if got := p.Metrics().Snapshot().Delta(mark); got.Get("pager.read") != 1 {
		t.Fatalf("page 0 should have been evicted; reads=%d hits=%d", got.Get("pager.read"), got.Get("pager.hit"))
	}
}

func TestColdResetForcesMisses(t *testing.T) {
	p := New(8)
	f := p.Create("t")
	no, _ := p.Append(f)
	p.Write(f, no, 0, []byte("hello"))
	p.Read(f, no)
	mark := p.Metrics().Snapshot()
	p.Read(f, no) // warm: hit
	if s := p.Metrics().Snapshot().Delta(mark); s.Get("pager.hit") != 1 || s.Get("pager.read") != 0 {
		t.Fatalf("warm read: %v", s.Counters)
	}
	p.ColdReset()
	mark = p.Metrics().Snapshot()
	got, _ := p.Read(f, no) // cold: miss
	if s := p.Metrics().Snapshot().Delta(mark); s.Get("pager.read") != 1 || s.Get("pager.hit") != 0 {
		t.Fatalf("cold read: %v", s.Counters)
	}
	if string(got[:5]) != "hello" {
		t.Fatal("data lost across ColdReset")
	}
}

// TestDropFiles: every file goes, with its pages in the pool, nothing is
// written back, and the next file created takes id 0 again.
func TestDropFiles(t *testing.T) {
	p := New(4)
	a, b := p.Create("a"), p.Create("b")
	for _, f := range []FileID{a, b} {
		if _, err := p.Append(f); err != nil {
			t.Fatal(err)
		}
		if err := p.Write(f, 0, 0, []byte("dirty")); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.DropFiles(); err != nil {
		t.Fatal(err)
	}
	if n := p.OpenFiles(); n != 0 {
		t.Fatalf("%d files after DropFiles", n)
	}
	if n := count(p, "pager.write"); n != 0 {
		t.Fatalf("DropFiles wrote back %d pages", n)
	}
	if _, err := p.Read(a, 0); err == nil {
		t.Fatal("a page of a dropped file was served from the pool")
	}
	f := p.Create("c")
	if f != 0 || p.FileName(f) != "c" || p.NumPages(f) != 0 {
		t.Fatalf("first file after DropFiles: id %d, name %q, %d pages; want a fresh file 0",
			f, p.FileName(f), p.NumPages(f))
	}
	if err := p.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if n := count(p, "pager.write"); n != 0 {
		t.Fatalf("a sync after DropFiles wrote back %d pages of dropped files", n)
	}
}

func TestHeapRoundTrip(t *testing.T) {
	p := New(16)
	h := NewHeap(p, "heap")
	recs := [][]byte{
		[]byte("first"),
		[]byte(""),
		bytes.Repeat([]byte("big"), 10000), // spans multiple pages
		[]byte("last"),
	}
	var rids []RID
	for _, r := range recs {
		rid, err := h.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if h.Count() != len(recs) {
		t.Fatalf("Count = %d", h.Count())
	}
	for i, rid := range rids {
		got, err := h.Live().Get(context.Background(), rid, nil)
		if err != nil {
			t.Fatalf("Get(%d): %v", rid, err)
		}
		if !bytes.Equal(got, recs[i]) {
			t.Fatalf("record %d mismatch: %d vs %d bytes", i, len(got), len(recs[i]))
		}
	}
}

func TestHeapScanOrderAndEarlyStop(t *testing.T) {
	p := New(16)
	h := NewHeap(p, "heap")
	for i := 0; i < 10; i++ {
		h.Insert([]byte(fmt.Sprintf("rec%d", i)))
	}
	var seen []string
	h.Live().Scan(context.Background(), func(_ RID, rec []byte) bool {
		seen = append(seen, string(rec))
		return len(seen) < 4
	})
	if len(seen) != 4 || seen[0] != "rec0" || seen[3] != "rec3" {
		t.Fatalf("scan = %v", seen)
	}
}

func TestHeapFlushAndColdRead(t *testing.T) {
	p := New(16)
	h := NewHeap(p, "heap")
	rid, _ := h.Insert([]byte("buffered"))
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	p.ColdReset()
	got, err := h.Live().Get(context.Background(), rid, nil)
	if err != nil || string(got) != "buffered" {
		t.Fatalf("Get after flush+cold = %q, %v", got, err)
	}
	// Continue inserting into the same tail page after Sync.
	rid2, _ := h.Insert([]byte("more"))
	got2, err := h.Live().Get(context.Background(), rid2, nil)
	if err != nil || string(got2) != "more" {
		t.Fatalf("Get of post-flush record = %q, %v", got2, err)
	}
}

func TestHeapGetErrors(t *testing.T) {
	p := New(16)
	h := NewHeap(p, "heap")
	h.Insert([]byte("x"))
	if _, err := h.Live().Get(context.Background(), RID(1<<40), nil); err == nil {
		t.Fatal("Get far beyond end succeeded")
	}
}

func TestHeapProperty(t *testing.T) {
	p := New(64)
	h := NewHeap(p, "heap")
	type entry struct {
		rid RID
		val []byte
	}
	var entries []entry
	f := func(data []byte) bool {
		rid, err := h.Insert(data)
		if err != nil {
			return false
		}
		entries = append(entries, entry{rid, append([]byte(nil), data...)})
		// Every previously inserted record must still read back intact.
		for _, e := range entries {
			got, err := h.Live().Get(context.Background(), e.rid, nil)
			if err != nil || !bytes.Equal(got, e.val) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// count reads p's counter name ("pager.read", "pager.hit", ...) from its
// registry.
func count(p *Pager, name string) int64 { return p.Metrics().Counter(name).Value() }

// TestIOCountsReadsAndWrites: IO, what an engine's PageIO reports, is
// pager.read plus pager.write, and a pool hit adds nothing to it.
func TestIOCountsReadsAndWrites(t *testing.T) {
	p := New(2)
	f := p.Create("t")
	for i := 0; i < 4; i++ {
		no, _ := p.Append(f)
		p.Write(f, no, 0, []byte{byte(i)})
	}
	p.ColdReset()
	p.Read(f, 0)
	p.Read(f, 0)
	reads, writes := count(p, "pager.read"), count(p, "pager.write")
	if reads == 0 || writes == 0 || count(p, "pager.hit") == 0 {
		t.Fatalf("setup: %d reads, %d writes, %d hits; want each above 0", reads, writes, count(p, "pager.hit"))
	}
	if got := p.IO(); got != reads+writes {
		t.Fatalf("IO = %d, want %d reads + %d writes", got, reads, writes)
	}
}

func TestDefaultPool(t *testing.T) {
	p := New(0)
	if p.capacity != DefaultPoolPages {
		t.Fatalf("default capacity = %d", p.capacity)
	}
}
