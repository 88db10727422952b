package pager

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"xbench/internal/metrics"
	"xbench/internal/stats"
)

// scanAll returns the view's live records in scan order.
func scanAll(t *testing.T, v HeapView) (rids []RID, recs []string) {
	t.Helper()
	err := v.Scan(context.Background(), func(rid RID, rec []byte) bool {
		rids = append(rids, rid)
		recs = append(recs, string(rec))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return rids, recs
}

func mustInsert(t *testing.T, h *Heap, rec []byte) RID {
	t.Helper()
	rid, err := h.Insert(rec)
	if err != nil {
		t.Fatal(err)
	}
	return rid
}

func wantRecs(t *testing.T, h *Heap, want ...string) {
	t.Helper()
	_, got := scanAll(t, h.Live())
	if fmt.Sprintf("%.12q", got) != fmt.Sprintf("%.12q", want) || h.Count() != len(want) {
		t.Fatalf("scan = %.12q (Count %d), want %.12q", got, h.Count(), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs beyond its first bytes", i)
		}
	}
}

// TestHeapDeleteSpanningRecord tombstones a record that covers three
// pages: its prefix is the only thing rewritten, the scan steps over the
// whole extent, and a record of the same size moves into it without the
// heap growing — also after the pool has been dropped.
func TestHeapDeleteSpanningRecord(t *testing.T) {
	ctx := context.Background()
	p := New(16)
	reg := metrics.NewRegistry()
	p.SetMetrics(reg)
	h := NewHeap(p, "heap")
	big := bytes.Repeat([]byte("B"), 2*PageSize+100)
	mustInsert(t, h, []byte("first"))
	rid := mustInsert(t, h, big)
	mustInsert(t, h, []byte("last"))
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	size := h.Bytes()

	if err := h.Delete(ctx, rid); err != nil {
		t.Fatal(err)
	}
	wantRecs(t, h, "first", "last")
	if _, err := h.Live().Get(ctx, rid, nil); !errors.Is(err, ErrDeleted) {
		t.Fatalf("Get of a deleted rid = %v, want ErrDeleted", err)
	}
	if err := h.Delete(ctx, rid); !errors.Is(err, ErrDeleted) {
		t.Fatalf("second Delete = %v, want ErrDeleted", err)
	}

	again := bytes.Repeat([]byte("N"), len(big))
	if got := mustInsert(t, h, again); got != rid {
		t.Fatalf("same-size insert landed at %d, want the dead extent at %d", got, rid)
	}
	if h.Bytes() != size {
		t.Fatalf("heap grew from %d to %d bytes across a delete and a same-size insert", size, h.Bytes())
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	p.ColdReset()
	wantRecs(t, h, "first", string(again), "last")
	if d, r := reg.Counter("pager.heap.tombstone").Value(), reg.Counter("pager.heap.reuse").Value(); d != 1 || r != 1 {
		t.Fatalf("counters: %d tombstones, %d reuses; want 1 and 1", d, r)
	}
}

// TestHeapDeleteInTailPage covers the page the heap appends into: a
// tombstone or a reuse there must be visible at once, survive the next
// Sync, and not be undone when later appends write the page — both while
// the tail is dirty and after a Sync left it clean.
func TestHeapDeleteInTailPage(t *testing.T) {
	ctx := context.Background()
	for _, flushFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("flushed=%v", flushFirst), func(t *testing.T) {
			p := New(16)
			h := NewHeap(p, "heap")
			a := mustInsert(t, h, []byte("aaaa"))
			mustInsert(t, h, []byte("bbbb"))
			if flushFirst {
				if err := h.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			if err := h.Delete(ctx, a); err != nil {
				t.Fatal(err)
			}
			wantRecs(t, h, "bbbb")
			mustInsert(t, h, []byte("cccc-appended")) // keeps filling the same tail page
			if got := mustInsert(t, h, []byte("AAAA")); got != a {
				t.Fatalf("reuse landed at %d, want %d", got, a)
			}
			wantRecs(t, h, "AAAA", "bbbb", "cccc-appended")
			if err := h.Sync(); err != nil {
				t.Fatal(err)
			}
			p.ColdReset()
			wantRecs(t, h, "AAAA", "bbbb", "cccc-appended")
		})
	}
}

// TestHeapReuseFit pins the first-fit rule: an extent is taken when the
// record fills it exactly or leaves at least the four bytes a dead
// prefix needs; a remainder of one to three bytes cannot be described,
// so the extent is passed over. A remainder becomes a dead record that a
// later insert can take in turn.
func TestHeapReuseFit(t *testing.T) {
	ctx := context.Background()
	p := New(16)
	h := NewHeap(p, "heap")
	rec := func(n int, c byte) []byte { return bytes.Repeat([]byte{c}, n) }
	mustInsert(t, h, []byte("head"))
	hole := mustInsert(t, h, rec(100, 'x'))
	mustInsert(t, h, []byte("tail"))
	if err := h.Delete(ctx, hole); err != nil {
		t.Fatal(err)
	}
	end := h.Bytes()

	// 97..99 bytes would leave 3..1 bytes: appended instead.
	for n := 97; n <= 99; n++ {
		if rid := mustInsert(t, h, rec(n, 'n')); rid == hole || uint64(rid) < end {
			t.Fatalf("%d-byte record went into the 100-byte extent (rid %d)", n, rid)
		}
	}
	// 40 bytes fit and leave 100-40-4 = 56 behind them.
	if rid := mustInsert(t, h, rec(40, 'p')); rid != hole {
		t.Fatalf("40-byte record landed at %d, want %d", rid, hole)
	}
	rest := hole + 4 + 40
	// 53..55 cannot use the 56-byte remainder; 52 can, leaving a dead
	// record with no data bytes; 0 then takes that one exactly.
	for n := 53; n <= 55; n++ {
		if rid := mustInsert(t, h, rec(n, 'q')); uint64(rid) < end {
			t.Fatalf("%d-byte record went into the 56-byte remainder (rid %d)", n, rid)
		}
	}
	if rid := mustInsert(t, h, rec(52, 'r')); rid != rest {
		t.Fatalf("52-byte record landed at %d, want the remainder at %d", rid, rest)
	}
	if rid := mustInsert(t, h, nil); rid != rest+4+52 {
		t.Fatalf("empty record landed at %d, want %d", rid, rest+4+52)
	}
	want := []string{"head", string(rec(40, 'p')), string(rec(52, 'r')), "", "tail"}
	for n := 97; n <= 99; n++ {
		want = append(want, string(rec(n, 'n')))
	}
	for n := 53; n <= 55; n++ {
		want = append(want, string(rec(n, 'q')))
	}
	wantRecs(t, h, want...)
}

// TestHeapChurnMatchesModel applies a seeded stream of inserts and
// deletes over a pool small enough to evict, with syncs and cold
// resets thrown in, and checks the heap against a model after each step:
// same live set in address order, every live record intact, every dead
// one refused.
func TestHeapChurnMatchesModel(t *testing.T) {
	ctx := context.Background()
	p := New(4)
	h := NewHeap(p, "heap")
	r := stats.NewRNG(3)
	live := map[RID][]byte{}
	var order, dead []RID // order: live rids, for a seeded choice of victim
	for step := 0; step < 3000; step++ {
		switch x := r.Float64(); {
		case x < 0.5 || len(live) == 0:
			n := r.Intn(300)
			if r.Bool(0.02) {
				n = PageSize + r.Intn(PageSize) // spans pages
			}
			rec := bytes.Repeat([]byte{byte('a' + step%26)}, n)
			rid := mustInsert(t, h, rec)
			if _, clash := live[rid]; clash {
				t.Fatalf("step %d: insert returned the rid %d of a live record", step, rid)
			}
			live[rid] = rec
			order = append(order, rid)
		case x < 0.95:
			i := r.Intn(len(order))
			rid := order[i]
			order = append(order[:i], order[i+1:]...)
			if err := h.Delete(ctx, rid); err != nil {
				t.Fatal(err)
			}
			delete(live, rid)
			dead = append(dead, rid)
		case x < 0.98:
			if err := h.Sync(); err != nil {
				t.Fatal(err)
			}
		default:
			if err := h.Sync(); err != nil {
				t.Fatal(err)
			}
			p.ColdReset()
		}
		if step%50 != 0 {
			continue
		}
		rids, recs := scanAll(t, h.Live())
		if len(rids) != len(live) || h.Count() != len(live) {
			t.Fatalf("step %d: scan saw %d records, Count = %d, model has %d", step, len(rids), h.Count(), len(live))
		}
		for i, rid := range rids {
			if i > 0 && rid <= rids[i-1] {
				t.Fatalf("step %d: scan out of address order", step)
			}
			if recs[i] != string(live[rid]) {
				t.Fatalf("step %d: record at %d differs from the model", step, rid)
			}
			got, err := h.Live().Get(ctx, rid, nil)
			if err != nil || !bytes.Equal(got, live[rid]) {
				t.Fatalf("step %d: Get(%d) = %d bytes, %v", step, rid, len(got), err)
			}
		}
		// Reuse writes at the start of an extent, so a deleted rid that is
		// not live again is still the tombstone it was left as.
		for _, rid := range dead {
			if _, reused := live[rid]; reused {
				continue
			}
			if _, err := h.Live().Get(ctx, rid, nil); !errors.Is(err, ErrDeleted) {
				t.Fatalf("step %d: Get of deleted rid %d = %v, want ErrDeleted", step, rid, err)
			}
		}
	}
	// Churn at a steady live size must not have grown the file without
	// bound: everything ever inserted was a few hundred KB.
	if h.Bytes() > 1<<20 {
		t.Fatalf("heap grew to %d bytes under churn", h.Bytes())
	}
}
