package pager

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fillPage writes a whole page of the given byte value.
func fillPage(t *testing.T, p *Pager, fid FileID, no uint32, b byte) {
	t.Helper()
	if err := p.Write(fid, no, 0, bytes.Repeat([]byte{b}, PageSize)); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotReadSeesPreImage(t *testing.T) {
	p := New(8)
	fid := p.Create("t")
	if _, err := p.Append(fid); err != nil {
		t.Fatal(err)
	}
	fillPage(t, p, fid, 0, 'A')

	snap := p.PinSnapshot()
	defer snap.Release()

	p.BeginMutation()
	fillPage(t, p, fid, 0, 'B')
	e := p.EndMutation(nil)

	got, err := p.ReadAt(fid, 0, snap.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 'A' {
		t.Fatalf("snapshot read saw %q, want pre-image 'A'", got[0])
	}
	after := p.PinSnapshot()
	defer after.Release()
	if after.Epoch() != e {
		t.Fatalf("new pin epoch %d, want committed %d", after.Epoch(), e)
	}
	got, err = p.ReadAt(fid, 0, after.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 'B' {
		t.Fatalf("post-commit read saw %q, want 'B'", got[0])
	}
}

// TestPinCarriesTheEpochsView: what a commit publishes with an epoch is
// what every pin of that epoch carries — a pin taken inside the next
// bracket still gets the committed one — and committing nil withdraws it.
func TestPinCarriesTheEpochsView(t *testing.T) {
	p := New(8)
	if s := p.PinSnapshot(); s.View() != nil {
		t.Fatalf("fresh pager handed out a view: %v", s.View())
	}
	e1 := p.EndMutation("one")
	p.BeginMutation()
	mid := p.PinSnapshot()
	e2 := p.EndMutation("two")
	after := p.PinSnapshot()
	if mid.Epoch() != e1 || mid.View() != "one" {
		t.Fatalf("pin inside the bracket = epoch %d view %v, want %d \"one\"", mid.Epoch(), mid.View(), e1)
	}
	if after.Epoch() != e2 || after.View() != "two" {
		t.Fatalf("pin after the commit = epoch %d view %v, want %d \"two\"", after.Epoch(), after.View(), e2)
	}
	mid.Release()
	after.Release()
	p.EndMutation(nil)
	if s := p.PinSnapshot(); s.View() != nil {
		t.Fatalf("withdrawn publication still handed out: %v", s.View())
	}
}

// TestOpenBracketVersionsSurviveZeroPinPrune is the regression test for
// the prune clamp: with no pins outstanding, GC must NOT reclaim
// pre-images captured by a still-open mutation bracket. A reader pinning
// the committed epoch mid-bracket depends on them.
func TestOpenBracketVersionsSurviveZeroPinPrune(t *testing.T) {
	p := New(8)
	fid := p.Create("t")
	if _, err := p.Append(fid); err != nil {
		t.Fatal(err)
	}
	fillPage(t, p, fid, 0, 'A')

	p.BeginMutation()
	fillPage(t, p, fid, 0, 'B') // captures pre-image 'A' at the open target

	// No pins are held. Before the clamp this pruned the open bracket's
	// version and the pinned read below returned the half-mutated 'B'.
	if n := p.GC(); n != 1 {
		t.Fatalf("GC retained %d versions, want 1 (open bracket pre-image)", n)
	}

	snap := p.PinSnapshot() // pins the committed (pre-bracket) epoch
	got, err := p.ReadAt(fid, 0, snap.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 'A' {
		t.Fatalf("mid-bracket snapshot read saw %q, want pre-image 'A'", got[0])
	}
	snap.Release()
	p.EndMutation(nil)

	// With the bracket committed and no pins, everything is reclaimable.
	if n := p.GC(); n != 0 {
		t.Fatalf("GC retained %d versions after commit with no pins, want 0", n)
	}
}

// TestSnapshotReadDuringTruncateRewrite stresses the ReadAt recheck: a
// writer repeatedly overwrites a page in place inside mutation brackets, as every
// update does (a heap tombstone or reuse, a B+tree leaf rewrite), while
// readers pin snapshots and demand a page image consistent with their
// epoch. Without the post-read version recheck, a reader racing the
// writer observes the half-replaced live page. Only the in-place case
// (truncate=false) remains: truncating a file inside a mutation bracket
// went with Pager.Truncate.
func TestSnapshotReadDuringTruncateRewrite(t *testing.T) {
	t.Run("truncate=false", func(t *testing.T) {
		p := New(8)
		fid := p.Create("t")
		if _, err := p.Append(fid); err != nil {
			t.Fatal(err)
		}
		fillPage(t, p, fid, 0, 'a')

		// epochByte records the page content committed at each epoch.
		var mu sync.Mutex
		epochByte := map[uint64]byte{p.SnapshotEpoch(): 'a'}

		var stop atomic.Bool
		var torn atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					snap := p.PinSnapshot()
					mu.Lock()
					want := epochByte[snap.Epoch()]
					mu.Unlock()
					got, err := p.ReadAt(fid, 0, snap.Epoch())
					if err != nil || got[0] != want || got[PageSize-1] != want {
						torn.Add(1)
					}
					snap.Release()
				}
			}()
		}

		for i := 0; i < 200; i++ {
			b := byte('a' + (i+1)%26)
			p.BeginMutation()
			fillPage(t, p, fid, 0, b)
			mu.Lock()
			epochByte[p.EndMutation(nil)] = b
			mu.Unlock()
		}
		stop.Store(true)
		wg.Wait()
		if n := torn.Load(); n > 0 {
			t.Fatalf("%d torn snapshot reads during rewrite", n)
		}
	})
}

// TestColdResetWaitsForPinnedSnapshots pins down the quiesce contract:
// ColdReset (and Load, which uses the same BlockPins primitive) must
// wait for outstanding pins instead of racing them, and new pins issued
// during the reset must wait until it finishes.
func TestColdResetWaitsForPinnedSnapshots(t *testing.T) {
	p := New(8)
	fid := p.Create("t")
	if _, err := p.Append(fid); err != nil {
		t.Fatal(err)
	}
	fillPage(t, p, fid, 0, 'A')

	snap := p.PinSnapshot()
	resetDone := make(chan struct{})
	go func() {
		p.ColdReset()
		close(resetDone)
	}()

	select {
	case <-resetDone:
		t.Fatal("ColdReset finished while a snapshot was pinned")
	case <-time.After(50 * time.Millisecond):
	}

	// A pin issued while the reset is draining must not sneak in before
	// it: it blocks until UnblockPins.
	pinDone := make(chan struct{})
	go func() {
		p.PinSnapshot().Release()
		close(pinDone)
	}()
	select {
	case <-pinDone:
		t.Fatal("PinSnapshot succeeded while ColdReset was draining pins")
	case <-time.After(50 * time.Millisecond):
	}

	snap.Release()
	select {
	case <-resetDone:
	case <-time.After(2 * time.Second):
		t.Fatal("ColdReset did not finish after the pin was released")
	}
	select {
	case <-pinDone:
	case <-time.After(2 * time.Second):
		t.Fatal("blocked PinSnapshot did not resume after ColdReset")
	}
	if n := p.PinnedSnapshots(); n != 0 {
		t.Fatalf("%d pins outstanding after quiesce, want 0", n)
	}
}

// TestHeapViewFrozenDuringRewrite exercises the layer engines actually
// read through: a HeapView built at a commit epoch must keep serving the
// records frozen at that epoch while later brackets tombstone every one
// of them and write new records into the very same extents (what a
// replace of same-sized documents does to a table heap). The reader at
// the old epoch reads the old bytes at the old RIDs; the live heap, which
// has not grown, reads the new ones there.
func TestHeapViewFrozenDuringRewrite(t *testing.T) {
	ctx := context.Background()
	p := New(16)
	h := NewHeap(p, "heap")

	var rids []RID
	rewrite := func(gen, n int) []string {
		recs := make([]string, n)
		p.BeginMutation()
		for _, rid := range rids {
			if err := h.Delete(ctx, rid); err != nil {
				t.Fatal(err)
			}
		}
		rids = rids[:0]
		for i := range recs {
			recs[i] = fmt.Sprintf("gen%d-rec%02d-%s", gen, i, bytes.Repeat([]byte{'x'}, 100))
			rid, err := h.Insert([]byte(recs[i]))
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
		}
		if err := h.Sync(); err != nil {
			t.Fatal(err)
		}
		p.EndMutation(nil)
		return recs
	}

	gen0 := rewrite(0, 50)
	rids0 := append([]RID(nil), rids...)
	size := h.Bytes()
	snap := p.PinSnapshot()
	defer snap.Release()
	v := h.View(snap.Epoch())

	// Rewrite the heap twice more, with fewer and then as many records;
	// the view must not notice, and the heap must not grow.
	rewrite(1, 37)
	gen2 := rewrite(2, 50)
	if h.Bytes() != size {
		t.Fatalf("heap grew from %d to %d bytes: dead extents were not reused", size, h.Bytes())
	}

	_, got := scanAll(t, v)
	if len(got) != len(gen0) || v.Count() != len(gen0) {
		t.Fatalf("snapshot scan saw %d records (Count %d), want %d", len(got), v.Count(), len(gen0))
	}
	for i := range got {
		if got[i] != gen0[i] {
			t.Fatalf("record %d: snapshot saw %q, want %q", i, got[i][:20], gen0[i][:20])
		}
		old, err := v.Get(ctx, rids0[i], nil)
		if err != nil || string(old) != gen0[i] {
			t.Fatalf("view Get(%d) = %.20q, %v; want %.20q", rids0[i], old, err, gen0[i])
		}
	}
	_, live := scanAll(t, h.Live())
	if len(live) != len(gen2) {
		t.Fatalf("live scan saw %d records, want %d", len(live), len(gen2))
	}
	seen := map[string]bool{}
	for _, rec := range live {
		seen[rec] = true
	}
	for _, rec := range gen2 {
		if !seen[rec] {
			t.Fatalf("live heap lost %.20q", rec)
		}
	}
}

// TestPinnedReadersAcrossRewrite is the fast path's gate: readers that
// pinned epoch E while no version of any page was retained — so their
// reads skip the version lookups — keep reading one page while a writer
// brackets, rewrites and commits it, twice. Every read must return E's
// bytes: the capture that precedes the first overwrite has to turn the
// lookups back on for a read already in flight.
func TestPinnedReadersAcrossRewrite(t *testing.T) {
	p := New(8)
	fid := p.Create("t")
	if _, err := p.Append(fid); err != nil {
		t.Fatal(err)
	}
	rounds := 200
	if testing.Short() {
		rounds = 50
	}
	for round := 0; round < rounds; round++ {
		want := byte('a' + round%26)
		fillPage(t, p, fid, 0, want) // outside a bracket: no version
		if n := p.mvcc.retained.Load(); n != 0 {
			t.Fatalf("round %d starts with %d retained versions, want 0", round, n)
		}
		var wg, pinned sync.WaitGroup
		var committed atomic.Bool
		var wrong atomic.Int64
		for i := 0; i < 4; i++ {
			wg.Add(1)
			pinned.Add(1)
			go func() {
				defer wg.Done()
				snap := p.PinSnapshot()
				defer snap.Release()
				pinned.Done()
				for after := 0; after < 20; {
					if committed.Load() {
						after++
					}
					got, err := p.ReadAt(fid, 0, snap.Epoch())
					if err != nil || got[0] != want || got[PageSize-1] != want {
						wrong.Add(1)
					}
					runtime.Gosched() // four spinners on few cores would starve the writer for a timeslice a round
				}
			}()
		}
		pinned.Wait()
		for _, b := range []byte{'X', 'Y'} {
			p.BeginMutation()
			fillPage(t, p, fid, 0, b)
			p.EndMutation(nil)
		}
		committed.Store(true)
		wg.Wait()
		if n := wrong.Load(); n > 0 {
			t.Fatalf("round %d: %d reads under a pin of the pre-rewrite epoch saw other bytes", round, n)
		}
	}
}

// TestRetainedCountMatchesVersions: the count ReadAt trusts to skip its
// lookups equals the number of versions in the map after every step of a
// random capture / commit / pin / release / GC / advance sequence.
func TestRetainedCountMatchesVersions(t *testing.T) {
	p := New(8)
	fid := p.Create("t")
	const pages = 4
	for i := 0; i < pages; i++ {
		if _, err := p.Append(fid); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	var snaps []*Snap
	open := false
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(20); {
		case op < 8: // a write: a capture when inside a bracket
			fillPage(t, p, fid, uint32(rng.Intn(pages)), byte(step))
		case op < 11:
			if !open {
				p.BeginMutation()
				open = true
			}
		case op < 14:
			if open {
				p.EndMutation(nil)
				open = false
			}
		case op < 16:
			snaps = append(snaps, p.PinSnapshot())
		case op < 18:
			if len(snaps) > 0 {
				i := rng.Intn(len(snaps))
				snaps[i].Release()
				snaps = append(snaps[:i], snaps[i+1:]...)
			}
		case op < 19:
			p.GC()
		default:
			p.EndMutation(nil) // commits with or without an open bracket
			open = false
		}
		if got, want := p.mvcc.retained.Load(), int64(p.LiveVersions()); got != want {
			t.Fatalf("step %d: retained count %d, versions in the map %d", step, got, want)
		}
	}
	for _, s := range snaps {
		s.Release()
	}
	if open {
		p.EndMutation(nil)
	}
	if got := p.mvcc.retained.Load(); got != 0 || p.LiveVersions() != 0 {
		t.Fatalf("after the last release: retained count %d, versions %d, want 0", got, p.LiveVersions())
	}
}

// TestInlinePruneLeavesNothingToCollect is why there is no background
// collector: over seeded random walks of every event that touches the
// version store — pin, release, begin, write, commit (also with no
// bracket open), BlockPins — an explicit GC after
// each event reclaims nothing, because the events that can make a version
// reclaimable prune before they return. It also holds the retained count,
// which is all LiveVersions reads, to the number of versions actually in
// the map.
func TestInlinePruneLeavesNothingToCollect(t *testing.T) {
	seeds, events := 200, 400
	if testing.Short() {
		seeds = 40
	}
	const pages = 4
	for seed := 0; seed < seeds; seed++ {
		p := New(8)
		fid := p.Create("t")
		for i := 0; i < pages; i++ {
			if _, err := p.Append(fid); err != nil {
				t.Fatal(err)
			}
		}
		reclaimed := p.Metrics().Counter("pager.snap.gc")
		rng := rand.New(rand.NewSource(int64(seed)))
		var snaps []*Snap
		open := false
		for ev := 0; ev < events; ev++ {
			var name string
			switch op := rng.Intn(20); {
			case op < 6:
				name = "write"
				fillPage(t, p, fid, uint32(rng.Intn(pages)), byte(ev))
			case op < 9:
				name = "begin"
				if !open {
					p.BeginMutation()
					open = true
				}
			case op < 12:
				name = "end"
				if open {
					p.EndMutation(nil)
					open = false
				}
			case op < 15:
				name = "pin"
				snaps = append(snaps, p.PinSnapshot())
			case op < 18:
				name = "release"
				if len(snaps) > 0 {
					i := rng.Intn(len(snaps))
					snaps[i].Release()
					snaps = append(snaps[:i], snaps[i+1:]...)
				}
			case op < 19:
				name = "advance" // an EndMutation with or without an open bracket
				p.EndMutation(nil)
				open = false
			default:
				name = "block"
				if len(snaps) == 0 && !open {
					p.BlockPins()
					p.UnblockPins()
				}
			}
			before := reclaimed.Value()
			p.GC()
			if n := reclaimed.Value() - before; n != 0 {
				t.Fatalf("seed %d event %d (%s): GC reclaimed %d versions the event left behind", seed, ev, name, n)
			}
			inMap := 0
			p.mvcc.mu.Lock()
			for _, vs := range p.mvcc.versions {
				inMap += len(vs)
			}
			p.mvcc.mu.Unlock()
			if got := p.LiveVersions(); got != inMap {
				t.Fatalf("seed %d event %d (%s): retained count %d, versions in the map %d", seed, ev, name, got, inMap)
			}
		}
		for _, s := range snaps {
			s.Release()
		}
		p.EndMutation(nil)
		if n := p.LiveVersions(); n != 0 {
			t.Fatalf("seed %d: %d versions retained with no pin and no bracket", seed, n)
		}
	}
}
