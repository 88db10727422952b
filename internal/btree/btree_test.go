package btree

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"xbench/internal/pager"
	"xbench/internal/stats"
)

func newTree(t *testing.T) *Tree {
	t.Helper()
	tr, err := New(pager.New(256), "idx")
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestInsertSearchSmall(t *testing.T) {
	tr := newTree(t)
	pairs := map[string]uint64{"b": 2, "a": 1, "c": 3}
	for k, v := range pairs {
		if err := tr.Insert(k, v); err != nil {
			t.Fatal(err)
		}
	}
	for k, v := range pairs {
		got, err := tr.Live().Search(context.Background(), k)
		if err != nil || len(got) != 1 || got[0] != v {
			t.Fatalf("Search(%q) = %v, %v", k, got, err)
		}
	}
	if got, _ := tr.Live().Search(context.Background(), "zzz"); len(got) != 0 {
		t.Fatal("Search miss returned values")
	}
	if tr.Live().Len() != 3 {
		t.Fatalf("Len = %d", tr.Live().Len())
	}
}

func TestManyKeysForceSplits(t *testing.T) {
	tr := newTree(t)
	const n = 20000
	for i := 0; i < n; i++ {
		if err := tr.Insert(fmt.Sprintf("key%08d", i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{0, 1, 777, n / 2, n - 1} {
		got, err := tr.Live().Search(context.Background(), fmt.Sprintf("key%08d", i))
		if err != nil || len(got) != 1 || got[0] != uint64(i) {
			t.Fatalf("Search key%08d = %v, %v", i, got, err)
		}
	}
}

func TestRandomOrderInsert(t *testing.T) {
	tr := newTree(t)
	r := stats.NewRNG(5)
	perm := r.Perm(5000)
	for _, i := range perm {
		if err := tr.Insert(fmt.Sprintf("k%06d", i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Full range scan must return every key in sorted order.
	var keys []string
	err := tr.Live().Range(context.Background(), "", "\xff", func(k string, v uint64) bool {
		keys = append(keys, k)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 5000 {
		t.Fatalf("range returned %d keys", len(keys))
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatal("range scan not in key order")
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr := newTree(t)
	// Enough duplicates to force splits through runs of equal keys.
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("dup%d", i%7)
		if err := tr.Insert(key, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for d := 0; d < 7; d++ {
		got, err := tr.Live().Search(context.Background(), fmt.Sprintf("dup%d", d))
		if err != nil {
			t.Fatal(err)
		}
		want := 3000 / 7
		if d < 3000%7 {
			want++
		}
		if len(got) != want {
			t.Fatalf("dup%d: %d values, want %d", d, len(got), want)
		}
		seen := map[uint64]bool{}
		for _, v := range got {
			if int(v)%7 != d || seen[v] {
				t.Fatalf("dup%d: wrong/duplicated value %d", d, v)
			}
			seen[v] = true
		}
	}
}

func TestRangeBounds(t *testing.T) {
	tr := newTree(t)
	for i := 0; i < 100; i++ {
		tr.Insert(fmt.Sprintf("%03d", i), uint64(i))
	}
	var got []uint64
	tr.Live().Range(context.Background(), "010", "020", func(_ string, v uint64) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 11 || got[0] != 10 || got[10] != 20 {
		t.Fatalf("Range[010,020] = %v", got)
	}
	// Early stop.
	count := 0
	tr.Live().Range(context.Background(), "000", "099", func(string, uint64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
	// Empty range.
	n := 0
	tr.Live().Range(context.Background(), "500", "600", func(string, uint64) bool { n++; return true })
	if n != 0 {
		t.Fatal("empty range returned entries")
	}
}

func TestLongKeysTruncated(t *testing.T) {
	tr := newTree(t)
	long := strings.Repeat("x", MaxKey+100)
	if err := tr.Insert(long, 1); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Live().Search(context.Background(), long)
	if err != nil || len(got) != 1 {
		t.Fatalf("truncated key lookup failed: %v, %v", got, err)
	}
	// A different key sharing the first MaxKey bytes collides by design.
	other := long + "different"
	got, _ = tr.Live().Search(context.Background(), other)
	if len(got) != 1 {
		t.Fatal("prefix-identical key should hit the truncated entry")
	}
}

func TestEmptyKey(t *testing.T) {
	tr := newTree(t)
	tr.Insert("", 42)
	tr.Insert("a", 1)
	got, err := tr.Live().Search(context.Background(), "")
	if err != nil || len(got) != 1 || got[0] != 42 {
		t.Fatalf("empty key lookup = %v, %v", got, err)
	}
}

// TestPropertyMatchesMap drives a seeded stream of interleaved inserts
// and deletes and holds the tree to a map model after every operation.
// The key pool is built to hit what Delete has to get right: hot keys
// whose duplicates span several leaves (the value to delete may sit
// leaves away from where the descent lands), keys longer than MaxKey
// that collide once truncated, and deletes of pairs that are not there,
// which must change nothing. The model then has to survive Sync, a cold
// pool and Open.
func TestPropertyMatchesMap(t *testing.T) {
	p := pager.New(64)
	tr, err := New(p, "idx")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r := stats.NewRNG(11)
	long := strings.Repeat("L", MaxKey)
	pool := []string{"hot-a", "hot-b", "", long + "tail-one", long + "tail-two"}
	for i := 0; i < 400; i++ {
		pool = append(pool, fmt.Sprintf("k%04d", r.Intn(5000)))
	}
	pick := func() string {
		switch x := r.Float64(); {
		case x < 0.45:
			return pool[r.Intn(3)] // the duplicate-heavy keys
		case x < 0.5:
			return pool[3+r.Intn(2)] // the keys that collide once truncated
		}
		return pool[5+r.Intn(len(pool)-5)]
	}

	model := map[string][]uint64{} // truncated key -> values, insertion order
	total := 0
	check := func(key string) {
		t.Helper()
		got, err := tr.Live().Search(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		want := model[trunc(key)]
		if len(got) != len(want) {
			t.Fatalf("Search(%.20q): %d values, model has %d", key, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Search(%.20q)[%d] = %d, model has %d", key, i, got[i], want[i])
			}
		}
		if tr.Live().Len() != total {
			t.Fatalf("Len = %d, model has %d entries", tr.Live().Len(), total)
		}
	}
	checkAll := func(tr *Tree) {
		t.Helper()
		seen := 0
		prev := ""
		err := tr.Live().Range(ctx, "", strings.Repeat("\xff", MaxKey), func(k string, v uint64) bool {
			if k < prev {
				t.Fatalf("Range out of order: %.20q after %.20q", k, prev)
			}
			prev = k
			found := false
			for _, mv := range model[k] {
				found = found || mv == v
			}
			if !found {
				t.Fatalf("Range yields (%.20q, %d), not in the model", k, v)
			}
			seen++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if seen != total || tr.Live().Len() != total {
			t.Fatalf("Range saw %d entries, Len = %d, model has %d", seen, tr.Live().Len(), total)
		}
	}

	next := uint64(0)
	// Start the hot keys three leaves wide, so that from the first delete
	// on the wanted value is usually not in the leaf the descent reaches.
	for i := 0; i < 3000; i++ {
		key := pool[i%2]
		next++
		if err := tr.Insert(key, next); err != nil {
			t.Fatal(err)
		}
		model[key] = append(model[key], next)
		total++
	}
	for op := 0; op < 6000; op++ {
		key := pick()
		tk := trunc(key)
		switch x := r.Float64(); {
		case x < 0.55 || len(model[tk]) == 0 && x < 0.9:
			next++
			if err := tr.Insert(key, next); err != nil {
				t.Fatal(err)
			}
			model[tk] = append(model[tk], next)
			total++
		case x < 0.9:
			vals := model[tk]
			i := r.Intn(len(vals))
			if err := tr.Delete(key, vals[i]); err != nil {
				t.Fatalf("Delete(%.20q, %d): %v", key, vals[i], err)
			}
			model[tk] = append(vals[:i:i], vals[i+1:]...)
			total--
		default:
			// A value no insert ever used, under a key that may well exist.
			if err := tr.Delete(key, next+1000); err != ErrNotFound {
				t.Fatalf("Delete of a missing pair = %v, want ErrNotFound", err)
			}
		}
		check(key)
	}
	if len(model["hot-a"]) < 600 {
		t.Fatalf("hot key holds %d duplicates: too few to span leaves", len(model["hot-a"]))
	}
	checkAll(tr)

	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	p.ColdReset()
	re, err := Open(p, tr.FileID())
	if err != nil {
		t.Fatal(err)
	}
	checkAll(re)
	// Drain one hot key through the reopened tree: its leaves empty out
	// and stay in the chain, and the neighbours must still be reachable.
	for _, v := range model["hot-a"] {
		if err := re.Delete("hot-a", v); err != nil {
			t.Fatal(err)
		}
		total--
	}
	delete(model, "hot-a")
	checkAll(re)
}

func TestColdLookupSurvivesReset(t *testing.T) {
	p := pager.New(64)
	tr, _ := New(p, "idx")
	for i := 0; i < 2000; i++ {
		tr.Insert(fmt.Sprintf("k%05d", i), uint64(i))
	}
	p.ColdReset()
	reads := p.Metrics().Counter("pager.read")
	before := reads.Value()
	got, err := tr.Live().Search(context.Background(), "k01234")
	if err != nil || len(got) != 1 || got[0] != 1234 {
		t.Fatalf("cold search = %v, %v", got, err)
	}
	if reads.Value() == before {
		t.Fatal("cold lookup performed no disk reads")
	}
}

func TestSyncOpenRoundTrip(t *testing.T) {
	p := pager.New(8) // tiny pool: the tree spills to disk while building
	tr, err := New(p, "idx")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := tr.Insert(fmt.Sprintf("k%05d", i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	p.ColdReset()
	re, err := Open(p, tr.FileID())
	if err != nil {
		t.Fatal(err)
	}
	if re.Live().Len() != tr.Live().Len() {
		t.Fatalf("reopened Len = %d, want %d", re.Live().Len(), tr.Live().Len())
	}
	got, err := re.Live().Search(context.Background(), "k02718")
	if err != nil || len(got) != 1 || got[0] != 2718 {
		t.Fatalf("search after reopen = %v, %v", got, err)
	}
}

// TestSyncSurvivesCrashRecovery: Sync leaves nothing of the tree dirty in
// the pool, so a pool dropped right after it loses nothing, and the tree
// reopens from the disk alone.
func TestSyncSurvivesCrashRecovery(t *testing.T) {
	p := pager.New(8)
	tr, err := New(p, "idx")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := tr.Insert(fmt.Sprintf("k%04d", i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	writes := p.Metrics().Counter("pager.write")
	before := writes.Value()
	p.ColdReset()
	if n := writes.Value() - before; n != 0 {
		t.Fatalf("dropping the pool after Sync wrote back %d pages", n)
	}
	re, err := Open(p, tr.FileID())
	if err != nil {
		t.Fatal(err)
	}
	var n int
	if err := re.Live().Range(context.Background(), "", "\xff", func(string, uint64) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("recovered tree has %d entries, want 1000", n)
	}
}

func TestOpenRejectsUnsyncedFile(t *testing.T) {
	p := pager.New(8)
	tr, err := New(p, "idx")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(p, tr.FileID()); err == nil {
		t.Fatal("Open of a never-synced tree succeeded")
	}
}

// TestViewKeepsDeletedEntries pins a TreeView at a commit epoch and then
// deletes (and re-inserts) through the live tree inside later mutation
// brackets: the view must keep answering from the pre-images, entry for
// entry, while the live tree answers the new state.
func TestViewKeepsDeletedEntries(t *testing.T) {
	ctx := context.Background()
	p := pager.New(64)
	tr, err := New(p, "idx")
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000 // several leaves
	key := func(i int) string { return fmt.Sprintf("k%05d", i) }
	p.BeginMutation()
	for i := 0; i < n; i++ {
		if err := tr.Insert(key(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	epoch := p.EndMutation(nil)
	snap := p.PinSnapshot()
	defer snap.Release()
	view := tr.ViewAt(epoch)

	p.BeginMutation()
	for i := 0; i < n; i += 2 {
		if err := tr.Delete(key(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	p.EndMutation(nil)
	p.BeginMutation()
	for i := 0; i < n; i += 4 {
		if err := tr.Insert(key(i), uint64(i+n)); err != nil {
			t.Fatal(err)
		}
	}
	p.EndMutation(nil)

	if view.Len() != n || tr.Live().Len() != n/2+n/4 {
		t.Fatalf("view Len = %d (want %d), live Len = %d (want %d)", view.Len(), n, tr.Live().Len(), n/2+n/4)
	}
	for i := 0; i < n; i++ {
		old, err := view.Search(ctx, key(i))
		if err != nil || len(old) != 1 || old[0] != uint64(i) {
			t.Fatalf("view Search(%s) = %v, %v; want [%d]", key(i), old, err, i)
		}
		live, err := tr.Live().Search(ctx, key(i))
		if err != nil {
			t.Fatal(err)
		}
		want := []uint64{uint64(i)}
		switch {
		case i%4 == 0:
			want = []uint64{uint64(i + n)}
		case i%2 == 0:
			want = nil
		}
		if fmt.Sprint(live) != fmt.Sprint(want) {
			t.Fatalf("live Search(%s) = %v, want %v", key(i), live, want)
		}
	}
}

// refNode and refEncode are the node codec the tree had before it worked
// on page bytes (PR 14's writeNode, kept here verbatim as the format
// reference): the on-disk cell format is pinned to what it emits.
type refNode struct {
	leaf bool
	next uint32
	keys []string
	vals []uint64 // leaf only, parallel to keys
	kids []uint32 // internal only, len(keys)+1
}

func refEncode(n *refNode) []byte {
	buf := make([]byte, 0, pager.PageSize)
	if n.leaf {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
	}
	buf = binary.BigEndian.AppendUint32(buf, n.next)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(n.keys)))
	if n.leaf {
		for i, k := range n.keys {
			buf = binary.BigEndian.AppendUint16(buf, uint16(len(k)))
			buf = append(buf, k...)
			buf = binary.BigEndian.AppendUint64(buf, n.vals[i])
		}
	} else {
		buf = binary.BigEndian.AppendUint32(buf, n.kids[0])
		for i, k := range n.keys {
			buf = binary.BigEndian.AppendUint16(buf, uint16(len(k)))
			buf = append(buf, k...)
			buf = binary.BigEndian.AppendUint32(buf, n.kids[i+1])
		}
	}
	return buf[:pager.PageSize] // Pager.Write zero-pads
}

// refDecode reads a page's content — which entries, children and chain
// pointer it holds — so that refEncode can say how that content must be
// laid out.
func refDecode(pg []byte) *refNode {
	n := &refNode{leaf: pg[0] == 0, next: binary.BigEndian.Uint32(pg[1:5])}
	nk := int(binary.BigEndian.Uint16(pg[5:7]))
	off := 7
	if !n.leaf {
		n.kids = append(n.kids, binary.BigEndian.Uint32(pg[off:]))
		off += 4
	}
	for i := 0; i < nk; i++ {
		kl := int(binary.BigEndian.Uint16(pg[off:]))
		n.keys = append(n.keys, string(pg[off+2:off+2+kl]))
		off += 2 + kl
		if n.leaf {
			n.vals = append(n.vals, binary.BigEndian.Uint64(pg[off:]))
			off += 8
		} else {
			n.kids = append(n.kids, binary.BigEndian.Uint32(pg[off:]))
			off += 4
		}
	}
	return n
}

// formatGolden is the SHA-256 over node pages 1..N of the tree
// TestFormatPinned builds: same bytes means same cell format, same split
// points, same page numbering and same leaf chain. It was regenerated once
// since the decode/re-encode implementation (PR 14) wrote it, in PR 27,
// when the split rule moved — a node splits where its bytes halve instead
// of where its cell count does, and behind its last cell at the right edge
// of the tree. The node layout did not move: every page is still held to
// refEncode above, which is PR 14's encoder untouched.
const formatGolden = "9fee998070cceef7eba043ac076473e9786eb7bb70717f1643630da869e89cbe"

// TestFormatPinned drives a seeded insert/delete sequence — duplicates
// that span leaves, MaxKey-truncated keys that collide, enough ~200-byte
// keys to grow the root twice — and holds every page of the file to the
// reference: each page must be exactly what refEncode emits for its
// content (cells packed from the header, zero to the end of the page),
// and the file as a whole must hash to the pinned digest.
func TestFormatPinned(t *testing.T) {
	p := pager.New(1024)
	tr, err := New(p, "idx")
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(15)
	pad := strings.Repeat("p", 190)
	long := strings.Repeat("L", MaxKey)
	type pair struct {
		key string
		val uint64
	}
	var live []pair
	next := uint64(0)
	for op := 0; op < 9000; op++ {
		if x := r.Float64(); x < 0.25 && len(live) > 0 {
			i := r.Intn(len(live))
			if err := tr.Delete(live[i].key, live[i].val); err != nil {
				t.Fatalf("op %d: Delete: %v", op, err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		var key string
		switch x := r.Float64(); {
		case x < 0.2:
			key = "hot-" + pad // duplicates across many leaves
		case x < 0.21:
			key = long + fmt.Sprintf("tail-%d", r.Intn(3)) // collide once truncated
		default:
			key = fmt.Sprintf("k%05d-%s", r.Intn(4000), pad)
		}
		next++
		if err := tr.Insert(key, next); err != nil {
			t.Fatalf("op %d: Insert: %v", op, err)
		}
		live = append(live, pair{key, next})
	}
	if tr.Live().Height() != 3 {
		t.Fatalf("height = %d, want 3: the sequence must grow the root twice", tr.Live().Height())
	}
	sum := sha256.New()
	for no := uint32(1); no < p.NumPages(tr.FileID()); no++ {
		pg, err := p.Read(tr.FileID(), no)
		if err != nil {
			t.Fatal(err)
		}
		if want := refEncode(refDecode(pg)); !bytes.Equal(pg, want) {
			t.Fatalf("page %d is not what the reference encoder emits for its content", no)
		}
		sum.Write(pg)
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != formatGolden {
		t.Fatalf("file digest = %s, want %s: the on-disk format or the split rule moved", got, formatGolden)
	}
}

// TestAllocationPins holds the tree to working on the page bytes. A
// Search allocates for its result only — never per node visited or per
// key passed over, so the count is the same at fan-out ~200 as at ~40 —
// and an Insert or Delete that does not split allocates exactly the one
// page it hands to the pager.
func TestAllocationPins(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		pad  int // key padding: sets the fan-out
		n    int // entries, inserted ascending: every leaf but the last is full
		h    int // the height that makes
	}{
		{"wide", 20, 40000, 2},
		{"narrow", 190, 8000, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := pager.New(4096) // the whole tree stays in the pool
			tr, err := New(p, "idx")
			if err != nil {
				t.Fatal(err)
			}
			pad := strings.Repeat("p", tc.pad)
			key := func(i int) string { return fmt.Sprintf("k%07d%s", i, pad) }
			for i := 0; i < tc.n; i++ {
				if err := tr.Insert(key(i), uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			if tr.Live().Height() != tc.h {
				t.Fatalf("height = %d, want %d", tr.Live().Height(), tc.h)
			}
			probe := key(tc.n / 3)
			for name, rd := range map[string]*TreeView{"live": tr.Live(), "frozen": tr.ViewAt(p.SnapshotEpoch())} {
				// One match: the result slice and the variable the scan
				// callback appends to.
				if a := testing.AllocsPerRun(100, func() {
					if got, err := rd.Search(ctx, probe); err != nil || len(got) != 1 {
						t.Fatalf("Search = %v, %v", got, err)
					}
				}); a > 2 {
					t.Errorf("%s: Search of one match allocates %v times, want <= 2", name, a)
				}
				if a := testing.AllocsPerRun(100, func() {
					if got, _ := rd.Search(ctx, "absent"); len(got) != 0 {
						t.Fatal("Search miss returned values")
					}
				}); a > 1 {
					t.Errorf("%s: Search miss allocates %v times, want <= 1", name, a)
				}
			}

			// Make room in one leaf, so that the inserts below cannot split it.
			mid := tc.n / 2
			for i := mid; i < mid+20; i++ {
				if err := tr.Delete(key(i), uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			pages := p.NumPages(tr.FileID())
			dup := key(mid + 10)
			v := uint64(tc.n)
			if a := testing.AllocsPerRun(8, func() {
				v++
				if err := tr.Insert(dup, v); err != nil {
					t.Fatal(err)
				}
			}); a != 1 {
				t.Errorf("non-splitting Insert allocates %v times, want exactly 1 (the page)", a)
			}
			if got := p.NumPages(tr.FileID()); got != pages {
				t.Fatalf("file grew %d -> %d pages: an insert split", pages, got)
			}
			if a := testing.AllocsPerRun(8, func() {
				if err := tr.Delete(dup, v); err != nil {
					t.Fatal(err)
				}
				v--
			}); a != 1 {
				t.Errorf("Delete allocates %v times, want exactly 1 (the page)", a)
			}
		})
	}
}
