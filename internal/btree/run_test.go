package btree

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"xbench/internal/pager"
	"xbench/internal/stats"
)

// dump returns every entry of the view in the order a full scan meets
// them: key order, duplicates in insertion order.
func dump(t *testing.T, v *TreeView) []Entry {
	t.Helper()
	var out []Entry
	err := v.Range(context.Background(), "", strings.Repeat("\xff", MaxKey), func(k string, val uint64) bool {
		out = append(out, Entry{k, val})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != v.Len() {
		t.Fatalf("a full Range yields %d entries, Len = %d", len(out), v.Len())
	}
	return out
}

// leaves walks the view's leaf chain and returns each leaf's cell count
// and the offset its cells end at.
func leaves(t *testing.T, v *TreeView) (keys, ends []int) {
	t.Helper()
	ctx := context.Background()
	no, err := v.findLeaf(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	for no != 0 {
		pg, err := v.readPage(ctx, no)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, nodeKeys(pg))
		ends = append(ends, skipCells(pg, nodeHdr, nodeKeys(pg), leafPtr))
		no = nodeNext(pg)
	}
	return keys, ends
}

// TestRunMatchesSingleInserts feeds one tree sorted runs through
// InsertRun and a second tree the same entries in the same order through
// Insert, with the same single inserts and deletes between the runs, and
// holds the two to the same content after every step: a full scan entry
// for entry (so duplicates come back in the same order) and Search on the
// keys the step touched. The runs are built to meet every way one can
// land: into the empty tree, wholly behind the last key (appended at the
// edge, many leaves at a time), wholly inside the populated tree, across
// both, one key repeated over more than a leaf, and keys that share their
// first MaxKey bytes or differ only in the last of them.
func TestRunMatchesSingleInserts(t *testing.T) {
	ctx := context.Background()
	runs, err := New(pager.New(64), "runs")
	if err != nil {
		t.Fatal(err)
	}
	singles, err := New(pager.New(64), "singles")
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(27)
	long := strings.Repeat("P", MaxKey-1)
	next := uint64(0)
	entry := func(key string) Entry { next++; return Entry{key, next} }
	edge := 0 // keys "z<edge>" sort behind every other key and ascend
	var live []Entry

	step := func(name string, run []Entry) {
		t.Helper()
		SortEntries(run)
		if err := runs.InsertRun(run); err != nil {
			t.Fatalf("%s: InsertRun: %v", name, err)
		}
		for _, e := range run {
			if err := singles.Insert(e.Key, e.Val); err != nil {
				t.Fatalf("%s: Insert: %v", name, err)
			}
		}
		live = append(live, run...)
		// A few single operations between the runs, the same on both.
		for i := 0; i < 20 && len(live) > 0; i++ {
			if r.Float64() < 0.5 {
				e := entry(fmt.Sprintf("k%05d", r.Intn(20000)))
				if r.Float64() < 0.3 {
					edge++
					e.Key = fmt.Sprintf("z%07d", edge)
				}
				for _, tr := range []*Tree{runs, singles} {
					if err := tr.Insert(e.Key, e.Val); err != nil {
						t.Fatalf("%s: Insert: %v", name, err)
					}
				}
				live = append(live, e)
				continue
			}
			j := r.Intn(len(live))
			for _, tr := range []*Tree{runs, singles} {
				if err := tr.Delete(live[j].Key, live[j].Val); err != nil {
					t.Fatalf("%s: Delete(%.20q, %d): %v", name, live[j].Key, live[j].Val, err)
				}
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		got, want := dump(t, runs.Live()), dump(t, singles.Live())
		if len(got) != len(live) || len(want) != len(live) {
			t.Fatalf("%s: %d entries by runs, %d by single inserts, %d live", name, len(got), len(want), len(live))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: entry %d is (%.20q, %d) by runs, (%.20q, %d) by single inserts", name, i, got[i].Key, got[i].Val, want[i].Key, want[i].Val)
			}
		}
		for _, e := range run[:min(len(run), 50)] {
			a, err := runs.Live().Search(ctx, e.Key)
			if err != nil {
				t.Fatal(err)
			}
			b, err := singles.Live().Search(ctx, e.Key)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(a) != fmt.Sprint(b) || len(a) == 0 {
				t.Fatalf("%s: Search(%.20q) = %v by runs, %v by single inserts", name, e.Key, a, b)
			}
		}
	}

	var run []Entry
	for i := 0; i < 3000; i++ {
		run = append(run, entry(fmt.Sprintf("k%05d", r.Intn(20000))))
	}
	step("into the empty tree", run)

	for round := 0; round < 6; round++ {
		run = nil
		for i := 0; i < 1500; i++ { // ascending and behind everything: the edge
			edge++
			run = append(run, entry(fmt.Sprintf("z%07d", edge)))
		}
		step("at the edge", run)

		run = nil
		for i := 0; i < 800; i++ { // inside the populated tree
			run = append(run, entry(fmt.Sprintf("k%05d", r.Intn(20000))))
		}
		step("inside", run)

		run = nil
		for i := 0; i < 600; i++ { // starts inside, ends at the edge
			run = append(run, entry(fmt.Sprintf("k%05d", r.Intn(20000))))
			edge++
			run = append(run, entry(fmt.Sprintf("z%07d", edge)))
		}
		step("across", run)

		run = nil
		edge++
		dup := fmt.Sprintf("z%07d", edge)
		for i := 0; i < 900; i++ { // one key over more than two leaves, at the edge
			run = append(run, entry(dup))
		}
		for i := 0; i < 700; i++ { // and one inside
			run = append(run, entry("k10000"))
		}
		step("duplicates", run)

		run = nil
		for i := 0; i < 40; i++ {
			// Equal once truncated, distinct in the last indexed byte, and
			// short of MaxKey by one: all share 511 bytes.
			run = append(run, entry(long+"Q"+fmt.Sprint(r.Intn(5))))
			run = append(run, entry(long+string(rune('A'+r.Intn(20)))))
			run = append(run, entry(long))
		}
		step("long keys", run)
	}
	if h := runs.Live().Height(); h < 3 {
		t.Fatalf("height = %d: the runs must have split internal nodes too", h)
	}
	if err := runs.InsertRun(nil); err != nil {
		t.Fatalf("InsertRun of nothing: %v", err)
	}
}

// TestRunInAnyOrder: InsertRun does not trust its input to ascend. A run
// that does not is still inserted entry by entry where each belongs.
func TestRunInAnyOrder(t *testing.T) {
	tr := newTree(t)
	want := newTree(t)
	r := stats.NewRNG(3)
	var run []Entry
	for i, k := range r.Perm(6000) {
		run = append(run, Entry{fmt.Sprintf("k%05d", k/2), uint64(i)})
	}
	if err := tr.InsertRun(run); err != nil {
		t.Fatal(err)
	}
	for _, e := range run {
		if err := want.Insert(e.Key, e.Val); err != nil {
			t.Fatal(err)
		}
	}
	got, exp := dump(t, tr.Live()), dump(t, want.Live())
	for i := range exp {
		if got[i] != exp[i] {
			t.Fatalf("entry %d = %v, single inserts have %v", i, got[i], exp[i])
		}
	}
}

// TestSortedBuildFillsLeaves: a sorted run into an empty tree — an index
// build — leaves every leaf but the last full to within one maximal cell
// of the run, chained in key order, and the tree no higher than the one
// the same entries build arriving one by one in heap order. So does the
// same run arriving as single ascending Inserts: the edge rule is the
// tree's, not the run's.
func TestSortedBuildFillsLeaves(t *testing.T) {
	r := stats.NewRNG(9)
	var run []Entry
	maxCell := 0
	for i, k := range r.Perm(30000) {
		key := fmt.Sprintf("k%06d-%s", k, strings.Repeat("v", k%40))
		run = append(run, Entry{key, uint64(i)})
		maxCell = max(maxCell, cellSize(key, leafPtr))
	}
	arrival := newTree(t)
	for _, e := range run {
		if err := arrival.Insert(e.Key, e.Val); err != nil {
			t.Fatal(err)
		}
	}
	SortEntries(run)
	built, oneByOne := newTree(t), newTree(t)
	if err := built.InsertRun(run); err != nil {
		t.Fatal(err)
	}
	for _, e := range run {
		if err := oneByOne.Insert(e.Key, e.Val); err != nil {
			t.Fatal(err)
		}
	}
	for name, tr := range map[string]*Tree{"InsertRun": built, "ascending Inserts": oneByOne} {
		keys, ends := leaves(t, tr.Live())
		total := 0
		for i, end := range ends {
			total += keys[i]
			if i < len(ends)-1 && end+maxCell <= pager.PageSize {
				t.Errorf("%s: leaf %d of %d ends at byte %d: room for another cell of %d", name, i, len(ends), end, maxCell)
			}
		}
		if total != len(run) {
			t.Errorf("%s: the leaf chain holds %d entries, want %d", name, total, len(run))
		}
		if h, ah := tr.Live().Height(), arrival.Live().Height(); h > ah {
			t.Errorf("%s: height %d, built in arrival order %d", name, h, ah)
		}
		if al, _ := leaves(t, arrival.Live()); len(keys) >= len(al) {
			t.Errorf("%s: %d leaves, built in arrival order %d", name, len(keys), len(al))
		}
		got := dump(t, tr.Live())
		for i, e := range run {
			if got[i] != e {
				t.Fatalf("%s: entry %d = %v, want %v", name, i, got[i], e)
			}
		}
	}
}

// TestSplitFitsWhateverTheKeySizes: a node splits where its bytes halve,
// not where its cell count does. Fifteen MaxKey-sized keys and
// twenty-nine two-byte ones fill a leaf to 8185 bytes; a sixteenth long
// key in front of them overflows it, and the first 22 of the 45 cells
// would be 8.4 KB.
func TestSplitFitsWhateverTheKeySizes(t *testing.T) {
	tr := newTree(t)
	n := uint64(0)
	for i := 0; i < 29; i++ {
		n++
		if err := tr.Insert("z"+string(rune('A'+i)), n); err != nil {
			t.Fatal(err)
		}
	}
	for i := 15; i >= 0; i-- {
		n++
		if err := tr.Insert(fmt.Sprintf("a%02d", i)+strings.Repeat("L", MaxKey), n); err != nil {
			t.Fatalf("long key %d: %v", i, err)
		}
	}
	if got := dump(t, tr.Live()); len(got) != 45 {
		t.Fatalf("%d entries, want 45", len(got))
	}
	if keys, _ := leaves(t, tr.Live()); len(keys) != 2 {
		t.Fatalf("%d leaves, want the one split", len(keys))
	}
}

// TestViewSeesNothingOfALaterRun: a reader pinned before a sorted build
// into a populated tree — inside a mutation bracket, as Xcolumn builds its
// doc indexes inside an update — keeps its entries exactly, although the
// run rewrote the rightmost leaf it reads, split it and grew the root.
func TestViewSeesNothingOfALaterRun(t *testing.T) {
	p := pager.New(64)
	tr, err := New(p, "idx")
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("p", 100) // 70 entries a leaf
	key := func(i int) string { return fmt.Sprintf("k%06d%s", i, pad) }
	commit(t, p, tr, func() error {
		for i := 0; i < 300; i++ { // a few leaves: a root above them
			if err := tr.Insert(key(2*i), uint64(2*i)); err != nil {
				return err
			}
		}
		return nil
	})
	snap := p.PinSnapshot()
	defer snap.Release()
	view := snap.View().(*TreeView)
	before := dump(t, view)

	var run []Entry
	for i := 0; i < 300; i++ {
		run = append(run, Entry{key(2*i + 1), uint64(2*i + 1)}) // between the old keys
	}
	for i := 600; i < 80000; i++ {
		run = append(run, Entry{key(i), uint64(i)}) // behind them: the edge, and a third level
	}
	commit(t, p, tr, func() error { return tr.InsertRun(run) })

	after := dump(t, view)
	if len(after) != len(before) || view.Len() != 300 || view.Height() != 2 {
		t.Fatalf("pinned view: %d entries (Len %d, height %d) after the run, %d before", len(after), view.Len(), view.Height(), len(before))
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("pinned view: entry %d = %v after the run, %v before", i, after[i], before[i])
		}
	}
	live := dump(t, tr.Live())
	if len(live) != 80000 || tr.Live().Height() != 3 {
		t.Fatalf("live tree: %d entries, height %d; want 80000, 3", len(live), tr.Live().Height())
	}
	for i, e := range live {
		if e != (Entry{key(i), uint64(i)}) {
			t.Fatalf("live tree: entry %d = %v", i, e)
		}
	}
}

// TestSortEntriesMatchesStableSort: on a run in ascending value order —
// what both callers build — SortEntries orders it exactly as a stable
// sort by truncated key does, over duplicate keys and keys longer than
// MaxKey that differ only past it.
func TestSortEntriesMatchesStableSort(t *testing.T) {
	r := stats.NewRNG(11)
	long := strings.Repeat("L", MaxKey)
	for round := 0; round < 50; round++ {
		n := 1 + r.Intn(3000)
		run := make([]Entry, n)
		for i := range run {
			key := fmt.Sprintf("k%03d", r.Intn(1+n/8)) // about eight entries a key
			if r.Float64() < 0.3 {
				key = long + fmt.Sprintf("%04d", r.Intn(40)) // equal once truncated
			}
			run[i] = Entry{key, uint64(i)*3 + uint64(r.Intn(3))}
		}
		want := slices.Clone(run)
		slices.SortStableFunc(want, func(a, b Entry) int { return strings.Compare(trunc(a.Key), trunc(b.Key)) })
		SortEntries(run)
		if !slices.Equal(run, want) {
			t.Fatalf("round %d: SortEntries of %d entries differs from the stable sort", round, n)
		}
	}
}
