package btree

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"xbench/internal/pager"
	"xbench/internal/stats"
)

// The tree's side of the page-buffer rule (the package comment): a node
// that stays on its page is patched in — in place while the open writer
// phase owns its buffer — and a write that copies a node takes a buffer
// the MVCC horizon freed before it allocates one.

// update runs fn as an engine runs an update: in a mutation bracket,
// then the commit's sync and the publication.
func update(t *testing.T, p *pager.Pager, fn func() error) {
	t.Helper()
	p.BeginMutation()
	err := fn()
	if err == nil {
		err = p.SyncAll()
	}
	p.EndMutation(nil)
	if err != nil {
		t.Fatal(err)
	}
}

// bytesPerRun is testing.AllocsPerRun in bytes: the mean bytes allocated
// by runs calls of fn, after one call to warm up.
func bytesPerRun(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestSecondWriteOfALeafAllocatesNoPage: inside one bracket, the first
// write of a leaf copies it into a buffer the bracket owns, and every
// later insert into or delete from that leaf patches that buffer, so it
// allocates nothing at all.
func TestSecondWriteOfALeafAllocatesNoPage(t *testing.T) {
	p := pager.New(64)
	tr, err := New(p, "idx")
	if err != nil {
		t.Fatal(err)
	}
	for i := range 100 {
		if err := tr.Insert(fmt.Sprintf("k%05d", i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Live().Height() != 1 {
		t.Fatalf("height = %d, want one leaf", tr.Live().Height())
	}
	pages := p.NumPages(tr.FileID())
	p.BeginMutation()
	defer p.EndMutation(nil)
	const dup = "k00050"
	v := uint64(100)
	if err := tr.Insert(dup, v); err != nil { // the bracket's first write of the leaf
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(50, func() {
		v++
		if err := tr.Insert(dup, v); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("a second insert into a leaf in one bracket allocates %v times, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() {
		if err := tr.Delete(dup, v); err != nil {
			t.Fatal(err)
		}
		v--
	}); a != 0 {
		t.Errorf("a delete from a leaf the bracket wrote allocates %v times, want 0", a)
	}
	if got := p.NumPages(tr.FileID()); got != pages {
		t.Fatalf("file grew %d -> %d pages: an insert split", pages, got)
	}
	if got, err := tr.Live().Search(context.Background(), dup); err != nil || len(got) != 2 || got[0] != 50 || got[1] != 100 {
		t.Fatalf("Search(%s) = %v, %v; want [50 100]", dup, got, err)
	}
}

// TestFirstWriteAfterTheHorizonAllocatesNoPage: once no pin can reach the
// pre-images an update captured, the next update's first write of a node
// copies the node into one of their buffers, not into a new page.
func TestFirstWriteAfterTheHorizonAllocatesNoPage(t *testing.T) {
	p := pager.New(64)
	tr, err := New(p, "idx")
	if err != nil {
		t.Fatal(err)
	}
	for i := range 2000 { // several leaves under one root
		if err := tr.Insert(fmt.Sprintf("k%05d", i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	recycled := p.Metrics().Counter("pager.recycle")
	before := recycled.Value()
	const key = "k01000"
	v := uint64(2000)
	// One run is two updates, each writing one leaf once.
	if b := bytesPerRun(50, func() {
		v++
		update(t, p, func() error { return tr.Insert(key, v) })
		update(t, p, func() error { return tr.Delete(key, v) })
	}); b >= pager.PageSize {
		t.Errorf("two updates that write one leaf each allocate %.0f bytes, want less than one page (%d)", b, pager.PageSize)
	}
	if got := recycled.Value() - before; got < 100 {
		t.Errorf("%d of 102 first writes took a recycled buffer, want all but the first", got)
	}
}

// TestPinnedViewsSurviveRecycling holds recycling to the horizon. Every
// buffer is poisoned as it enters the free list, and each view is pinned
// across 100 updates. Those updates rewrite the pages the view was
// frozen over, while the buffers of versions below the oldest pin are
// recycled. The pool is small, so pages are evicted and read back, and
// only every other update syncs, so some reclaimed pre-images are still
// their pages' disk images when a write looks for a buffer. Every view
// must keep returning the entries it held when it was pinned.
func TestPinnedViewsSurviveRecycling(t *testing.T) {
	ctx := context.Background()
	p := pager.New(16)
	p.PoisonRecycled(0xDB)
	tr, err := New(p, "idx")
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("p", 40)
	key := func(i int) string { return fmt.Sprintf("k%04d%s", i, pad) }
	var live []Entry
	for i := range 1000 {
		live = append(live, Entry{key(i), uint64(i)})
	}
	if err := tr.InsertRun(live); err != nil {
		t.Fatal(err)
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	entries := func(v *TreeView) []Entry {
		var out []Entry
		if err := v.Range(ctx, "", "\xff", func(k string, val uint64) bool {
			out = append(out, Entry{k, val})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	type pinned struct {
		snap *pager.Snap
		view *TreeView
		want []Entry
		at   int // the update it was pinned after
	}
	check := func(w pinned, u int) {
		t.Helper()
		if got := entries(w.view); !slices.Equal(got, w.want) {
			t.Fatalf("after update %d, the view pinned after update %d returns %d entries, want its %d", u, w.at, len(got), len(w.want))
		}
	}
	const span, updates = 100, 250
	recycled := p.Metrics().Counter("pager.recycle")
	before := recycled.Value()
	r := stats.NewRNG(11)
	next := uint64(1000)
	var window []pinned
	for u := range updates {
		p.BeginMutation()
		for range 3 {
			i := r.Intn(len(live))
			if err := tr.Delete(live[i].Key, live[i].Val); err != nil {
				t.Fatal(err)
			}
			live = slices.Delete(live, i, i+1)
			next++
			if err := tr.Insert(key(r.Intn(1000)), next); err != nil {
				t.Fatal(err)
			}
		}
		want := entries(tr.Live())
		live = slices.Clone(want) // the next update changes live in place
		if u%2 == 0 {
			if err := p.SyncAll(); err != nil {
				t.Fatal(err)
			}
		}
		epoch := p.EndMutation(nil)
		snap := p.PinSnapshot()
		if snap.Epoch() != epoch {
			t.Fatalf("pinned epoch %d, committed %d", snap.Epoch(), epoch)
		}
		window = append(window, pinned{snap, tr.ViewAt(epoch), want, u})
		if len(window) > span {
			check(window[0], u)
			window[0].snap.Release()
			window = window[1:]
		}
		if u%25 == 0 {
			for _, w := range window {
				check(w, u)
			}
		}
	}
	for _, w := range window {
		check(w, updates)
		w.snap.Release()
	}
	if got := recycled.Value() - before; got == 0 {
		t.Fatal("no write took a recycled buffer: the test exercised nothing")
	}
}

// TestSortedRunSplitsAllocateUnderThreePages: inside a writer phase a
// split builds the overflowing node in the tree's overflow buffer, each
// half in its scratch buffer, and writes each half as a whole page. The
// right sibling goes into the zeroed page Append installed, and the left
// half in place when the phase owns its buffer, so a split allocates
// Append's page and at most one copy of the left half: over a sorted
// build, fewer than one and a half pages.
func TestSortedRunSplitsAllocateUnderThreePages(t *testing.T) {
	p := pager.New(64)
	tr, err := New(p, "idx")
	if err != nil {
		t.Fatal(err)
	}
	run := make([]Entry, 20000)
	for i := range run {
		run[i] = Entry{fmt.Sprintf("k%08d", i), uint64(i)}
	}
	splits := p.Metrics().Counter("btree.split")
	before := splits.Value()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p.BeginMutation()
	err = tr.InsertRun(run)
	p.EndMutation(nil)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	n := splits.Value() - before
	if n < 20 {
		t.Fatalf("the run made %d splits, want at least 20", n)
	}
	if per := float64(m1.TotalAlloc-m0.TotalAlloc) / pager.PageSize / float64(n); per >= 1.5 {
		t.Errorf("%d splits allocate %.2f pages each, want fewer than 1.5", n, per)
	}
	if got, err := tr.Live().Search(context.Background(), run[12345].Key); err != nil || len(got) != 1 || got[0] != 12345 {
		t.Fatalf("Search(%s) = %v, %v", run[12345].Key, got, err)
	}
}
