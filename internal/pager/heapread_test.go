package pager

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"xbench/internal/stats"
)

// The read contract of HeapView.Scan and HeapView.Get (DESIGN.md §3): a
// record that lies inside one page is handed out where it lies, a
// page-straddling one assembled; either way the bytes are the record's.

// readHeapDigest is the sha256 of buildReadHeap's live records in scan
// order (rid, length, bytes) as the record-at-a-time reader of the parent
// commit delivered them: the heap's layout and what a scan returns did not
// move when the reader went page-at-a-time.
const readHeapDigest = "bc9ae5c3e329aec0db491ab43d768b48bb39ca659aeea4d7fce62a44f4d58d04"

// buildReadHeap fills a heap from a fixed seed so that length prefixes and
// record bodies meet page boundaries at every alignment — a prefix that
// starts 0 to 5 bytes before a boundary, bodies of 0 bytes to several
// pages behind each — then churns it: deletes, inserts that reuse dead
// extents exactly and with a remainder, zero-length records. The last
// inserts are left unsynced in the tail page. It returns the model: the
// live records by rid and every rid ever deleted.
func buildReadHeap(t *testing.T, p *Pager) (*Heap, map[RID][]byte, []RID) {
	t.Helper()
	ctx := context.Background()
	h := NewHeap(p, "heap")
	r := stats.NewRNG(23)
	live := map[RID][]byte{}
	var order, dead []RID
	seq := 0
	insert := func(n int) {
		rec := make([]byte, n)
		for j := range rec {
			rec[j] = byte(seq*31 + j*7)
		}
		seq++
		rid := mustInsert(t, h, rec)
		if _, clash := live[rid]; clash {
			t.Fatalf("insert returned the rid %d of a live record", rid)
		}
		live[rid] = rec
		order = append(order, rid)
	}
	remove := func() {
		i := r.Intn(len(order))
		rid := order[i]
		order = append(order[:i], order[i+1:]...)
		if err := h.Delete(ctx, rid); err != nil {
			t.Fatal(err)
		}
		delete(live, rid)
		dead = append(dead, rid)
	}
	sizes := []int{0, 1, 3, 4, 5, 100, PageSize - 9, PageSize - 4, PageSize, 2*PageSize + 17}
	for k := 0; k <= 5; k++ {
		for _, n := range sizes {
			// A filler that ends k bytes before a page boundary, so the next
			// prefix starts there.
			pad := (2*PageSize - k - int(h.Bytes()%PageSize) - 4) % PageSize
			insert(pad)
			if got := int(h.Bytes() % PageSize); got != (PageSize-k)%PageSize {
				t.Fatalf("filler left the heap at page offset %d, want %d before a boundary", got, k)
			}
			insert(n)
		}
		if err := h.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 1500; step++ {
		switch x := r.Float64(); {
		case x < 0.55 || len(order) == 0:
			n := r.Intn(300)
			if r.Bool(0.1) {
				n = 0
			} else if r.Bool(0.03) {
				n = PageSize + r.Intn(PageSize)
			}
			insert(n)
		case x < 0.97:
			remove()
		default:
			if err := h.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 20; i++ { // the unsynced tail
		insert(r.Intn(200))
	}
	return h, live, dead
}

type heapReads interface {
	Scan(context.Context, func(RID, []byte) bool) error
	Get(context.Context, RID, *[]byte) ([]byte, error)
}

// checkReads holds a reader to the model: Scan delivers exactly the live
// records in address order, each capped at its own length when it lies
// inside a page, Get agrees per rid with a fresh copy and with one caller
// buffer for every page-straddling record, a dead rid is refused. It
// returns the digest of the scan.
func checkReads(t *testing.T, name string, h heapReads, live map[RID][]byte, dead []RID) string {
	t.Helper()
	ctx := context.Background()
	want := make([]RID, 0, len(live))
	for rid := range live {
		want = append(want, rid)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	sum := sha256.New()
	i := 0
	err := h.Scan(ctx, func(rid RID, rec []byte) bool {
		if i >= len(want) || rid != want[i] {
			t.Fatalf("%s: scan record %d has rid %d, want %d (of %d)", name, i, rid, want[min(i, len(want)-1)], len(want))
		}
		if !bytes.Equal(rec, live[rid]) {
			t.Fatalf("%s: scan record at %d (%d bytes) differs from the %d inserted", name, rid, len(rec), len(live[rid]))
		}
		if inPage := (uint64(rid)+4)%PageSize+uint64(len(rec)) <= PageSize; inPage && cap(rec) != len(rec) {
			t.Fatalf("%s: in-page record at %d has capacity %d beyond its %d bytes", name, rid, cap(rec), len(rec))
		}
		var hdr [12]byte
		binary.BigEndian.PutUint64(hdr[:8], uint64(rid))
		binary.BigEndian.PutUint32(hdr[8:], uint32(len(rec)))
		sum.Write(hdr[:])
		sum.Write(rec)
		i++
		return true
	})
	if err != nil || i != len(want) {
		t.Fatalf("%s: scan delivered %d of %d records: %v", name, i, len(want), err)
	}
	var buf []byte
	for _, rid := range want {
		got, err := h.Get(ctx, rid, nil)
		if err != nil || !bytes.Equal(got, live[rid]) {
			t.Fatalf("%s: Get(%d) = %d bytes, %v; want the %d inserted", name, rid, len(got), err, len(live[rid]))
		}
		got, err = h.Get(ctx, rid, &buf)
		if err != nil || !bytes.Equal(got, live[rid]) {
			t.Fatalf("%s: Get(%d) into a buffer = %d bytes, %v; want the %d inserted", name, rid, len(got), err, len(live[rid]))
		}
		if inPage := (uint64(rid)+4)%PageSize+uint64(len(got)) <= PageSize; !inPage && len(got) > 0 && &got[0] != &buf[0] {
			t.Fatalf("%s: Get(%d) assembled a page-straddling record outside the caller's buffer", name, rid)
		}
	}
	for _, rid := range dead {
		if _, reused := live[rid]; reused {
			continue
		}
		if _, err := h.Get(ctx, rid, nil); !errors.Is(err, ErrDeleted) {
			t.Fatalf("%s: Get of deleted rid %d = %v, want ErrDeleted", name, rid, err)
		}
	}
	return fmt.Sprintf("%x", sum.Sum(nil))
}

// TestHeapReadContract: the live heap with its unsynced tail, then a
// published view under a pin while the heap is rewritten beneath it, with
// and without copy-on-read, all in a pool of four pages so that the scan's
// own fetches evict the pages it read — every reader returns the model,
// and the digest the parent's reader returned.
func TestHeapReadContract(t *testing.T) {
	ctx := context.Background()
	p := New(4)
	h, live, dead := buildReadHeap(t, p)
	if d := checkReads(t, "live heap, dirty tail", h.Live(), live, dead); d != readHeapDigest {
		t.Fatalf("live scan digest %s, the parent's reader gave %s", d, readHeapDigest)
	}

	epoch := p.BeginMutation()
	v := h.View(epoch)
	p.EndMutation(v)
	snap := p.PinSnapshot()
	defer snap.Release()
	v = snap.View().(HeapView)

	// Rewrite the heap under the pin: every record tombstoned, new ones in
	// their extents.
	p.BeginMutation()
	for rid := range live {
		if err := h.Delete(ctx, rid); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 400; i++ {
		mustInsert(t, h, bytes.Repeat([]byte{'z'}, i))
	}
	nv := h.View(epoch + 1)
	p.EndMutation(nv)

	if d := checkReads(t, "pinned view", v, live, dead); d != readHeapDigest {
		t.Fatalf("pinned view: digest %s, want %s", d, readHeapDigest)
	}
	if _, recs := scanAll(t, h.Live()); len(recs) != 400 {
		t.Fatalf("live heap after the rewrite scans %d records, want 400", len(recs))
	}
}

// TestHeapReadRefusesBrokenExtents: a view whose extent ends inside a
// record, or inside a prefix, and a prefix that claims more bytes than the
// heap holds stop Scan and Get with an error — after the records before
// the damage, never with bytes from beyond it.
func TestHeapReadRefusesBrokenExtents(t *testing.T) {
	ctx := context.Background()
	p := New(8)
	h := NewHeap(p, "heap")
	var rids []RID
	for i := 0; i < 5; i++ {
		rids = append(rids, mustInsert(t, h, bytes.Repeat([]byte{byte('a' + i)}, 3000)))
	}
	v := h.View(0)
	last := rids[4]
	for _, c := range []struct {
		name, want string
		end        uint64
	}{
		{"extent ends inside the last record", "corrupt length", uint64(last) + 4 + 2999},
		{"extent ends inside the last prefix", "beyond heap end", uint64(last) + 2},
	} {
		cut := v
		cut.end = c.end
		n := 0
		err := cut.Scan(ctx, func(RID, []byte) bool { n++; return true })
		if err == nil || !strings.Contains(err.Error(), c.want) || n != 4 {
			t.Fatalf("%s: scan delivered %d records, err %v; want 4 and %q", c.name, n, err, c.want)
		}
		if _, err := cut.Get(ctx, last, nil); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Get = %v, want %q", c.name, err, c.want)
		}
	}

	var huge [4]byte
	binary.BigEndian.PutUint32(huge[:], 1<<30)
	if err := h.write(huge[:], uint64(rids[2])); err != nil {
		t.Fatal(err)
	}
	n := 0
	err := h.Live().Scan(ctx, func(RID, []byte) bool { n++; return true })
	if err == nil || !strings.Contains(err.Error(), "corrupt length") || n != 2 {
		t.Fatalf("corrupt prefix: scan delivered %d records, err %v; want 2 and a corrupt length", n, err)
	}
	if _, err := h.Live().Get(ctx, rids[2], nil); err == nil || !strings.Contains(err.Error(), "corrupt length") {
		t.Fatalf("corrupt prefix: Get = %v", err)
	}
}

// TestHeapReadCancellation: a context cancelled during a scan stops it
// before the next page is fetched — the records still delivered all lie in
// the page already in hand — and stops a Get before its first.
func TestHeapReadCancellation(t *testing.T) {
	p := New(8)
	h := NewHeap(p, "heap")
	for i := 0; i < 200; i++ {
		mustInsert(t, h, bytes.Repeat([]byte{'r'}, 300))
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	p.ColdReset()
	mark := p.Metrics().Snapshot()
	ctx, cancel := context.WithCancel(context.Background())
	delivered := 0
	err := h.Live().Scan(ctx, func(rid RID, rec []byte) bool {
		cancel()
		delivered++
		if end := uint64(rid) + 4 + uint64(len(rec)); end > PageSize {
			t.Fatalf("record ending at offset %d delivered after the cancel: a second page was fetched", end)
		}
		return true
	})
	if !errors.Is(err, context.Canceled) || delivered == 0 {
		t.Fatalf("cancelled scan delivered %d records and returned %v", delivered, err)
	}
	s := p.Metrics().Snapshot().Delta(mark)
	if asked := s.Get("pager.hit") + s.Get("pager.read") - s.Get("pager.readahead.issued"); asked != 1 {
		t.Fatalf("cancelled scan asked the pool for %d pages, want 1", asked)
	}
	if _, err := h.Live().Get(ctx, 0, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Get under a cancelled context = %v", err)
	}
}

// TestHeapScanAllocatesNothing: records that lie inside their pages are
// handed out as sub-slices of the page images, so a scan of them
// allocates nothing at all, whatever their number.
func TestHeapScanAllocatesNothing(t *testing.T) {
	p := New(64)
	h := NewHeap(p, "heap")
	for i := 0; i < 4096; i++ { // 64 bytes with the prefix: 128 to a page, none straddles
		mustInsert(t, h, bytes.Repeat([]byte{byte(i)}, 60))
	}
	v := h.View(0)
	ctx := context.Background()
	n := 0
	allocs := testing.AllocsPerRun(10, func() {
		if err := v.Scan(ctx, func(_ RID, rec []byte) bool { n += len(rec); return true }); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || n != 11*4096*60 {
		t.Fatalf("scan of 4096 in-page records allocates %.0f objects (read %d bytes), want 0", allocs, n)
	}
}

// TestPinnedScansAcrossHeapChurn has readers scan and Get through pinned
// views — holding sub-slices of page images while they compare them —
// against a writer that rewrites every record of the heap in place,
// commit after commit. A view must keep returning its own generation,
// whole; under -race this is also the proof that no page image a reader
// can hold is ever written to.
func TestPinnedScansAcrossHeapChurn(t *testing.T) {
	ctx := context.Background()
	p := New(8)
	h := NewHeap(p, "heap")
	sizes := []int{0, 40, 300, 300, 2500, 40, PageSize + 100, 300, 7000, 40, 300, 1200}
	var rids []RID
	commit := func(gen int) {
		epoch := p.BeginMutation()
		for _, rid := range rids {
			if err := h.Delete(ctx, rid); err != nil {
				t.Error(err)
			}
		}
		rids = rids[:0]
		for _, n := range sizes {
			rid, err := h.Insert(bytes.Repeat([]byte{byte('a' + gen%26)}, n))
			if err != nil {
				t.Error(err)
			}
			rids = append(rids, rid)
		}
		v := h.View(epoch)
		p.EndMutation(v)
	}
	commit(0)
	rounds := 400
	if testing.Short() {
		rounds = 100
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				snap := p.PinSnapshot()
				v := snap.View().(HeapView)
				var gen byte
				n := 0
				err := v.Scan(ctx, func(rid RID, rec []byte) bool {
					if len(rec) > 0 && gen == 0 {
						gen = rec[0]
					}
					got, err := v.Get(ctx, rid, nil)
					if err != nil || !bytes.Equal(got, rec) || len(rec) != sizes[n] || bytes.Count(rec, []byte{gen}) != len(rec) {
						t.Errorf("pinned epoch %d: record %d at %d: %d bytes (Get: %d, %v), want %d of %q",
							snap.Epoch(), n, rid, len(rec), len(got), err, sizes[n], gen)
					}
					n++
					return true
				})
				if err != nil || n != len(sizes) {
					t.Errorf("pinned epoch %d: scan saw %d of %d records: %v", snap.Epoch(), n, len(sizes), err)
				}
				snap.Release()
			}
		}()
	}
	for gen := 1; gen <= rounds; gen++ {
		commit(gen)
	}
	stop.Store(true)
	wg.Wait()
}
