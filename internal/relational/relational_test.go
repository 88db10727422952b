package relational

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"

	"xbench/internal/btree"
	"xbench/internal/pager"
)

func newDB() *DB { return NewDB(pager.New(256)) }

func TestCreateInsertScan(t *testing.T) {
	db := newDB()
	tb := db.Create("item", "id", "title", "cost")
	for i := 0; i < 10; i++ {
		if err := tb.Insert(Row{fmt.Sprintf("I%d", i), fmt.Sprintf("Title %d", i), "9.99"}.Rec()); err != nil {
			t.Fatal(err)
		}
	}
	if tb.Live().Count() != 10 {
		t.Fatalf("Count = %d", tb.Live().Count())
	}
	var ids []string
	tb.Live().Scan(context.Background(), func(r Rec) bool {
		ids = append(ids, string(r.Col(tb.Col("id"))))
		return true
	})
	if len(ids) != 10 || ids[0] != "I0" || ids[9] != "I9" {
		t.Fatalf("scan ids = %v", ids)
	}
}

func TestInsertArityError(t *testing.T) {
	db := newDB()
	tb := db.Create("t", "a", "b")
	if err := tb.Insert(Row{"only-one"}.Rec()); err == nil {
		t.Fatal("arity violation accepted")
	}
}

func TestDuplicateTablePanics(t *testing.T) {
	db := newDB()
	db.Create("t", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Create did not panic")
		}
	}()
	db.Create("t", "a")
}

func TestUnknownColumnPanics(t *testing.T) {
	db := newDB()
	tb := db.Create("t", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("unknown column did not panic")
		}
	}()
	tb.Col("nope")
}

func TestLookupEqWithAndWithoutIndex(t *testing.T) {
	db := newDB()
	tb := db.Create("t", "k", "v")
	for i := 0; i < 500; i++ {
		tb.Insert(Row{fmt.Sprintf("k%03d", i%100), fmt.Sprintf("v%d", i)}.Rec())
	}
	// Without an index: sequential scan.
	rows, err := tb.Live().LookupEq(context.Background(), "k", "k042", true, 0)
	if err != nil || len(rows) != 5 {
		t.Fatalf("scan lookup = %d rows, %v", len(rows), err)
	}
	// With an index: same answer.
	if err := tb.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	if tb.Live().IndexHeight("k") == 0 {
		t.Fatal("no index after CreateIndex")
	}
	rows2, err := tb.Live().LookupEq(context.Background(), "k", "k042", true, 0)
	if err != nil || len(rows2) != 5 {
		t.Fatalf("indexed lookup = %d rows, %v", len(rows2), err)
	}
	// Index must also cover rows inserted after creation.
	tb.Insert(Row{"k042", "late"}.Rec())
	rows3, _ := tb.Live().LookupEq(context.Background(), "k", "k042", true, 0)
	if len(rows3) != 6 {
		t.Fatalf("index not maintained on insert: %d rows", len(rows3))
	}
	// Re-creating is a no-op.
	if err := tb.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
}

func TestLookupRange(t *testing.T) {
	db := newDB()
	tb := db.Create("t", "date", "x")
	for i := 0; i < 100; i++ {
		tb.Insert(Row{fmt.Sprintf("2000-01-%02d", i%30+1), "y"}.Rec())
	}
	scan, err := tb.Live().LookupRange(context.Background(), "date", "2000-01-10", "2000-01-12", true)
	if err != nil {
		t.Fatal(err)
	}
	tb.CreateIndex("date")
	indexed, err := tb.Live().LookupRange(context.Background(), "date", "2000-01-10", "2000-01-12", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan) == 0 || len(scan) != len(indexed) {
		t.Fatalf("range results differ: scan=%d indexed=%d", len(scan), len(indexed))
	}
}

func TestNullHandling(t *testing.T) {
	db := newDB()
	tb := db.Create("pub", "name", "fax")
	tb.Insert(Row{"P1", "555-0000"}.Rec())
	tb.Insert(Row{"P2", Null}.Rec())
	tb.Insert(Row{"P3", ""}.Rec()) // empty is NOT null
	tb.CreateIndex("fax")

	// NULLs are not indexed and never equal anything.
	rows, _ := tb.Live().LookupEq(context.Background(), "fax", Null, true, 0)
	if len(rows) != 0 {
		t.Fatal("NULL matched in index lookup")
	}
	rows, _ = tb.Live().LookupEq(context.Background(), "fax", "", true, 0)
	if len(rows) != 1 || string(rows[0].Col(0)) != "P3" {
		t.Fatalf("empty-string lookup = %v", rows)
	}
	// A scan-side NULL check still finds the missing-fax publisher.
	var missing []string
	tb.Live().Scan(context.Background(), func(r Rec) bool {
		if r.Null(tb.Col("fax")) {
			missing = append(missing, string(r.Col(0)))
		}
		return true
	})
	if len(missing) != 1 || missing[0] != "P2" {
		t.Fatalf("missing-fax scan = %v", missing)
	}
	// Range scans skip NULLs.
	got, _ := tb.Live().LookupRange(context.Background(), "name", "P1", "P9", true)
	if len(got) != 3 {
		t.Fatalf("range over names = %d", len(got))
	}
}

func TestSortRows(t *testing.T) {
	rows := []Rec{Row{"b", "O10"}.Rec(), Row{"a", "O9"}.Rec(), Row{"b", "O2"}.Rec(), Row{Null, "O1"}.Rec(), Row{"", "O3"}.Rec()}
	Sort(rows, SortKey{Col: 0}, SortKey{Col: 1, IDSuffix: true})
	var got []string
	for _, r := range rows {
		got = append(got, string(r.Col(1)))
	}
	// NULL is least, then the empty string; ties go by the id's number.
	if want := "O1 O3 O9 O2 O10"; strings.Join(got, " ") != want {
		t.Fatalf("sorted ids %v, want %s", got, want)
	}
}

// TestSortMatchesComparator holds Sort to the comparator it decodes
// once, run by sort.SliceStable on every comparison: seeded rows with
// duplicate keys, NULLs, empty strings and ids without digits or with
// letters after them, under every key list the trees sort by.
func TestSortMatchesComparator(t *testing.T) {
	less := func(keys []SortKey) func(a, b Rec) bool {
		return func(a, b Rec) bool {
			for _, k := range keys {
				var c int
				switch an, bn := a.Null(k.Col), b.Null(k.Col); {
				case k.IDSuffix:
					c = cmp.Compare(idSuffix(a.Col(k.Col)), idSuffix(b.Col(k.Col)))
				case an && bn:
				case an:
					c = -1
				case bn:
					c = 1
				default:
					c = bytes.Compare(a.Col(k.Col), b.Col(k.Col))
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		}
	}
	strs := []string{Null, "", "a", "b", "ab", "B", "\xff"}
	ids := []string{Null, "", "O", "O1", "O01", "O2", "O10", "I10", "O1x", "x", "007", "O99999"}
	rng := rand.New(rand.NewPCG(7, 45))
	for trial := 0; trial < 200; trial++ {
		rows := make([]Rec, rng.IntN(40))
		for i := range rows {
			rows[i] = Row{strs[rng.IntN(len(strs))], ids[rng.IntN(len(ids))], fmt.Sprint(i)}.Rec()
		}
		for _, keys := range [][]SortKey{
			{{Col: 0}}, {{Col: 1, IDSuffix: true}}, {{Col: 0}, {Col: 1, IDSuffix: true}},
			{{Col: 1}}, {{Col: 1, IDSuffix: true}, {Col: 0}}, nil,
		} {
			want := slices.Clone(rows)
			sort.SliceStable(want, func(i, j int) bool { return less(keys)(want[i], want[j]) })
			got := slices.Clone(rows)
			Sort(got, keys...)
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("trial %d, keys %v: row %d is %q, want %q", trial, keys, i, got[i].Row(), want[i].Row())
				}
			}
		}
	}
}

func TestGetAndRoundTripSpecialValues(t *testing.T) {
	db := newDB()
	tb := db.Create("t", "v")
	vals := []string{"", Null, "with \x00 byte", "ünïcødé", "<xml>&stuff</xml>"}
	for _, v := range vals {
		tb.Insert(Row{v}.Rec())
	}
	i := 0
	tb.Live().Scan(context.Background(), func(r Rec) bool {
		if got := r.Row()[0]; got != vals[i] || string(r.Col(0)) != vals[i] {
			t.Fatalf("value %d mangled: %q vs %q", i, got, vals[i])
		}
		i++
		return true
	})
	if i != len(vals) {
		t.Fatalf("scanned %d rows", i)
	}
}

func TestTableNames(t *testing.T) {
	db := newDB()
	db.Create("b", "x")
	db.Create("a", "x")
	names := db.TableNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("TableNames = %v", names)
	}
	if db.Table("a") == nil || db.Table("zzz") != nil {
		t.Fatal("Table lookup wrong")
	}
}

func TestFlushThenColdScan(t *testing.T) {
	p := pager.New(64)
	db := NewDB(p)
	tb := db.Create("t", "v")
	for i := 0; i < 1000; i++ {
		tb.Insert(Row{fmt.Sprintf("row%d", i)}.Rec())
	}
	p.ColdReset()
	reads := p.Metrics().Counter("pager.read")
	before := reads.Value()
	n := 0
	tb.Live().Scan(context.Background(), func(Rec) bool { n++; return true })
	if n != 1000 {
		t.Fatalf("cold scan saw %d rows", n)
	}
	if reads.Value() == before {
		t.Fatal("cold scan did no disk reads")
	}
}

// TestLookupRechecksTruncatedKeys: B+tree keys stop at btree.MaxKey bytes,
// so values that share their first 512 share an index key and one probe
// returns them all. A lookup answers with the rows that hold what was
// asked for — equality exactly, a range on the full value — on the
// table's live view and on a frozen one.
func TestLookupRechecksTruncatedKeys(t *testing.T) {
	ctx := context.Background()
	db := newDB()
	tb := db.Create("t", "k", "v")
	prefix := strings.Repeat("p", btree.MaxKey)
	a, b := prefix+strings.Repeat("a", 88), prefix+strings.Repeat("b", 88)
	for _, r := range []Row{{a, "A"}, {b, "B"}, {prefix, "P"}, {"q", "Q"}} {
		if err := tb.Insert(r.Rec()); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	pin := db.Pager.PinSnapshot()
	defer pin.Release()
	snap := db.View(pin.Epoch())
	vals := func(rows []Rec, err error) string {
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, r := range rows {
			out = append(out, string(r.Col(1)))
		}
		return strings.Join(out, "")
	}
	for name, tab := range map[string]*TableView{"live": tb.Live(), "snapshot": snap.Table("t")} {
		for _, c := range []struct{ what, got, want string }{
			{"LookupEq(a)", vals(tab.LookupEq(ctx, "k", a, true, 0)), "A"},
			{"LookupEq(b)", vals(tab.LookupEq(ctx, "k", b, true, 0)), "B"},
			{"LookupEq(prefix)", vals(tab.LookupEq(ctx, "k", prefix, true, 0)), "P"},
			{"LookupEq(b, limit 1)", vals(tab.LookupEq(ctx, "k", b, true, 1)), "B"},
			{"LookupEq(a+x)", vals(tab.LookupEq(ctx, "k", a+"x", true, 0)), ""},
			{"LookupRange(a, a)", vals(tab.LookupRange(ctx, "k", a, a, true)), "A"},
			{"LookupRange(b, q)", vals(tab.LookupRange(ctx, "k", b, "q", true)), "BQ"},
			{"LookupRange(prefix, a)", vals(tab.LookupRange(ctx, "k", prefix, a, true)), "AP"},
		} {
			if c.got != c.want {
				t.Errorf("%s table: %s answered rows %q, want %q", name, c.what, c.got, c.want)
			}
		}
	}
}

// TestFilterScanAllocatesPerKeptRow: a filter scan compares the column
// where the record lies and copies the records it keeps, so its
// allocations are a constant (the result slice's growth included) plus one
// per kept row — not a function of the rows scanned or of their width.
func TestFilterScanAllocatesPerKeptRow(t *testing.T) {
	ctx := context.Background()
	for _, k := range []int{0, 8, 64} {
		tb := newDB().Create("t", "id", "g", "c2", "c3", "c4", "c5")
		for i := 0; i < 2000; i++ {
			g := "miss"
			if i%(2000/64) == 0 && i/(2000/64) < k {
				g = "hit"
			}
			if err := tb.Insert(Row{fmt.Sprint("r", i), g, "some", "more", "columns", "here"}.Rec()); err != nil {
				t.Fatal(err)
			}
		}
		v := tb.Live()
		for name, scan := range map[string]func() ([]Rec, error){
			"LookupEq by filter":    func() ([]Rec, error) { return v.LookupEq(ctx, "g", "hit", false, 0) },
			"LookupRange by filter": func() ([]Rec, error) { return v.LookupRange(ctx, "g", "ha", "hz", false) },
		} {
			allocs := testing.AllocsPerRun(10, func() {
				if rows, err := scan(); err != nil || len(rows) != k {
					t.Fatalf("%s kept %d rows, %v; want %d", name, len(rows), err, k)
				}
			})
			if allocs > float64(12+k) {
				t.Errorf("%s over 2000 rows keeping %d allocates %.0f objects, want <= 12 + %d", name, k, allocs, k)
			} else {
				t.Logf("%s over 2000 rows keeping %d: %.0f allocations", name, k, allocs)
			}
		}
	}
}

// TestCreateIndexMatchesMaintainedIndex: an index created over existing
// rows (one sorted run into the tree) answers like one that existed from
// the empty table and was maintained row by row — LookupEq and
// LookupRange row for row, in the same order. The rows hold what the two
// builds could disagree on: repeated values (equal keys must come back in
// heap order), NULLs (never indexed), and long values that collide once
// truncated to btree.MaxKey — 556 of them, equal keys over 35 leaves.
func TestCreateIndexMatchesMaintainedIndex(t *testing.T) {
	ctx := context.Background()
	created := newDB().Create("t", "id", "g")
	maintained := newDB().Create("t", "id", "g")
	if err := maintained.CreateIndex("g"); err != nil {
		t.Fatal(err)
	}
	prefix := strings.Repeat("p", btree.MaxKey)
	groups := []string{"hot", Null, prefix + "one", prefix + "two", prefix, ""}
	for i := 0; i < 5000; i++ {
		g := fmt.Sprintf("g%03d", (i*7919)%400)
		if i%3 == 0 {
			g = groups[(i/3)%len(groups)]
		}
		row := Row{fmt.Sprintf("r%05d", i), g}
		for _, tb := range []*Table{created, maintained} {
			if err := tb.Insert(row.Rec()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := created.CreateIndex("g"); err != nil {
		t.Fatal(err)
	}
	same := func(what string, a, b []Rec, errs ...error) int {
		t.Helper()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		if len(a) != len(b) {
			t.Fatalf("%s: %d rows from the created index, %d from the maintained one", what, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: row %d is %.20q from the created index, %.20q from the maintained one", what, i, a[i].Row(), b[i].Row())
			}
		}
		return len(a)
	}
	c, m := created.Live(), maintained.Live()
	for _, g := range append(groups, "g000", "g123", "g399", "absent", prefix+"three") {
		a, errA := c.LookupEq(ctx, "g", g, true, 0)
		b, errB := m.LookupEq(ctx, "g", g, true, 0)
		n := same(fmt.Sprintf("LookupEq(%.20q)", g), a, b, errA, errB)
		if g == "hot" && n != 278 {
			t.Errorf("LookupEq(hot): %d rows, want 278", n)
		}
		if (g == Null || g == "absent" || g == prefix+"three") && n != 0 {
			t.Errorf("LookupEq(%.20q): %d rows, want none", g, n)
		}
	}
	for _, r := range [][2]string{{"", "\xff"}, {"g100", "g200"}, {"hot", prefix + "zzz"}, {prefix, prefix + "one"}, {"h", "g"}} {
		a, errA := c.LookupRange(ctx, "g", r[0], r[1], true)
		b, errB := m.LookupRange(ctx, "g", r[0], r[1], true)
		same(fmt.Sprintf("LookupRange(%.20q, %.20q)", r[0], r[1]), a, b, errA, errB)
	}
	all, err := c.LookupRange(ctx, "g", "", "\xff", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5000-278 {
		t.Errorf("the whole range holds %d rows, want 5000 less the 278 NULLs", len(all))
	}
}
