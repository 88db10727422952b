package relational

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"xbench/internal/btree"
	"xbench/internal/pager"
	"xbench/internal/stats"
)

// rebuilt is the reference DeleteWhere is checked against: a fresh table
// loaded with exactly the rows that should have survived, with the same
// indexes built over them. It is how DeleteWhere itself used to work.
func rebuilt(t *testing.T, rows []Row, indexed []string) *TableView {
	t.Helper()
	tb := newDB().Create("ref", "doc", "grp", "val")
	for _, r := range rows {
		if err := tb.Insert(r.Rec()); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range indexed {
		if err := tb.CreateIndex(c); err != nil {
			t.Fatal(err)
		}
	}
	return tb.Live()
}

// multiset renders rows order-free: heap order differs between a table
// that reused dead extents and one loaded fresh.
func multiset(rows []Rec) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = strings.Join(r.Row(), "\x1f")
	}
	sort.Strings(keys)
	return fmt.Sprintf("%d rows\n%s", len(rows), strings.Join(keys, "\n"))
}

func scanRows(t *testing.T, tb *TableView) []Rec {
	t.Helper()
	var rows []Rec
	if err := tb.Scan(context.Background(), func(r Rec) bool {
		rows = append(rows, r.Clone())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestDeleteWhereMatchesRebuild applies one seeded stream of document
// inserts and deletes (a document is a run of rows sharing a doc value)
// to a table through Insert and DeleteWhere, and at checkpoints compares
// it with a table rebuilt from the surviving rows: Count, the scanned
// multiset, and every equality and range lookup on every column. Three
// arms: the delete column indexed (victims by probe), nothing indexed
// (victims by filter scan), and only another column indexed (filter
// scan, but that index still has to lose the victims' entries).
func TestDeleteWhereMatchesRebuild(t *testing.T) {
	ctx := context.Background()
	// Two doc values longer than an index key: once truncated they collide,
	// so a probe for one returns the other's rows too.
	long := strings.Repeat("D", btree.MaxKey)
	for _, indexed := range [][]string{{"doc", "grp"}, nil, {"grp"}} {
		t.Run(fmt.Sprintf("indexed=%v", indexed), func(t *testing.T) {
			tb := NewDB(pager.New(32)).Create("t", "doc", "grp", "val")
			for _, c := range indexed {
				if err := tb.CreateIndex(c); err != nil {
					t.Fatal(err)
				}
			}
			r := stats.NewRNG(17)
			var model []Row
			live := []string{}
			docRows := func(doc string) []Row {
				rows := make([]Row, 1+r.Intn(6))
				for i := range rows {
					grp := fmt.Sprintf("g%d", r.Intn(7))
					if r.Bool(0.1) {
						grp = Null
					}
					rows[i] = Row{doc, grp, strings.Repeat("v", r.Intn(120))}
				}
				return rows
			}
			insert := func(doc string) {
				for _, row := range docRows(doc) {
					if err := tb.Insert(row.Rec()); err != nil {
						t.Fatal(err)
					}
					model = append(model, row)
				}
				live = append(live, doc)
			}
			remove := func(i int) {
				doc := live[i]
				live = append(live[:i], live[i+1:]...)
				want := 0
				kept := model[:0:0]
				for _, row := range model {
					if row[0] == doc {
						want++
					} else {
						kept = append(kept, row)
					}
				}
				model = kept
				n, err := tb.DeleteWhere(ctx, "doc", doc)
				if err != nil || n != want {
					t.Fatalf("DeleteWhere(%.10q) = %d, %v; want %d rows", doc, n, err, want)
				}
			}
			compare := func(step int) {
				t.Helper()
				tb, ref := tb.Live(), rebuilt(t, model, indexed)
				if tb.Count() != ref.Count() {
					t.Fatalf("step %d: Count = %d, rebuilt table has %d", step, tb.Count(), ref.Count())
				}
				if got, want := multiset(scanRows(t, tb)), multiset(scanRows(t, ref)); got != want {
					t.Fatalf("step %d: scan differs from the rebuilt table\ngot  %.300s\nwant %.300s", step, got, want)
				}
				probes := map[string][]string{"doc": {"never-inserted", long + "a", long + "b"}, "grp": {Null}}
				probes["doc"] = append(probes["doc"], live...)
				for g := 0; g < 7; g++ {
					probes["grp"] = append(probes["grp"], fmt.Sprintf("g%d", g))
				}
				for col, vals := range probes {
					for _, v := range vals {
						got, err := tb.LookupEq(ctx, col, v, true, 0)
						if err != nil {
							t.Fatal(err)
						}
						want, _ := ref.LookupEq(ctx, col, v, true, 0)
						if multiset(got) != multiset(want) {
							t.Fatalf("step %d: LookupEq(%s, %.10q): %d rows, rebuilt table has %d", step, col, v, len(got), len(want))
						}
					}
				}
				for _, rg := range [][3]string{{"doc", "d1", "d5"}, {"doc", "", "\xff"}, {"grp", "g2", "g4"}, {"doc", "C", "E"}} {
					got, err := tb.LookupRange(ctx, rg[0], rg[1], rg[2], true)
					if err != nil {
						t.Fatal(err)
					}
					want, _ := ref.LookupRange(ctx, rg[0], rg[1], rg[2], true)
					if multiset(got) != multiset(want) {
						t.Fatalf("step %d: LookupRange(%s, %q..%q): %d rows, rebuilt table has %d", step, rg[0], rg[1], rg[2], len(got), len(want))
					}
				}
			}

			insert(long + "a")
			insert(long + "b")
			remove(0) // long+"a" goes; the probe for it also returns long+"b"'s rows
			compare(-1)
			next := 0
			for step := 0; step < 600; step++ {
				switch {
				case len(live) < 5 || r.Bool(0.5):
					insert(fmt.Sprintf("d%d", next))
					next++
				default:
					remove(r.Intn(len(live)))
				}
				if step%40 == 0 || step == 599 {
					compare(step)
				}
			}
			// Deleting what is not there removes nothing.
			if n, err := tb.DeleteWhere(ctx, "doc", "never-inserted"); n != 0 || err != nil {
				t.Fatalf("DeleteWhere of an absent value = %d, %v", n, err)
			}
			compare(600)
		})
	}
}

// TestDeleteWhereFindsWhatLookupFinds: the victim search and the view's
// equality are one look-up, so the rows DeleteWhere removes are the rows
// LookupEq returned just before — by probe and by filter, among keys that
// share a 512-byte prefix, for the stored NULL, and on a live view whose
// tail page was never synced — and LookupEq returns none of them after.
func TestDeleteWhereFindsWhatLookupFinds(t *testing.T) {
	ctx := context.Background()
	long := strings.Repeat("K", btree.MaxKey)
	for _, indexed := range []bool{true, false} {
		t.Run(fmt.Sprintf("indexed=%v", indexed), func(t *testing.T) {
			tb := NewDB(pager.New(32)).Create("t", "k", "v")
			if indexed {
				if err := tb.CreateIndex("k"); err != nil {
					t.Fatal(err)
				}
			}
			keys := []string{long + "a", long + "b", long, "plain", Null, ""}
			for i := 0; i < 40; i++ {
				if err := tb.Insert(Row{keys[i%len(keys)], fmt.Sprint("v", i)}.Rec()); err != nil {
					t.Fatal(err)
				}
				if i == 20 {
					// Half the rows reach the disk; the rest stay in the
					// dirty tail page.
					if err := tb.db.Pager.SyncAll(); err != nil {
						t.Fatal(err)
					}
				}
			}
			left := 40
			for _, k := range keys {
				// DeleteWhere looks its victims up the way a planned probe
				// would: through the index when the column has one.
				found, err := tb.Live().LookupEq(ctx, "k", k, true, 0)
				if err != nil {
					t.Fatal(err)
				}
				byFilter, err := tb.Live().LookupEq(ctx, "k", k, false, 0)
				if err != nil {
					t.Fatal(err)
				}
				want := 0
				for i := 0; i < 40; i++ {
					if keys[i%len(keys)] == k {
						want++
					}
				}
				switch {
				case len(byFilter) != want:
					t.Fatalf("LookupEq(%.10q) by filter found %d rows, %d were inserted", k, len(byFilter), want)
				case indexed && k == Null:
					if len(found) != 0 { // NULLs are not indexed
						t.Fatalf("LookupEq(NULL) by index found %d rows", len(found))
					}
				case multiset(found) != multiset(byFilter):
					t.Fatalf("LookupEq(%.10q): %d rows by index, %d by filter", k, len(found), len(byFilter))
				}
				if first, _ := tb.Live().LookupEq(ctx, "k", k, true, 1); len(found) > 0 && (len(first) != 1 || !bytes.Equal(first[0], found[0])) {
					t.Fatalf("LookupEq(%.10q, limit 1) = %v, want the first of %d rows", k, first, len(found))
				}
				n, err := tb.DeleteWhere(ctx, "k", k)
				if err != nil || n != len(found) {
					t.Fatalf("DeleteWhere(%.10q) = %d, %v; LookupEq had found %d rows", k, n, err, len(found))
				}
				left -= n
				gone := map[string]bool{}
				for _, r := range found {
					gone[string(r.Col(1))] = true
				}
				for _, r := range scanRows(t, tb.Live()) {
					if gone[string(r.Col(1))] {
						t.Fatalf("DeleteWhere(%.10q) left row %s, which LookupEq had found", k, r.Col(1))
					}
				}
				if got := tb.Live().Count(); got != left {
					t.Fatalf("after DeleteWhere(%.10q): %d rows left, want %d", k, got, left)
				}
				if after, err := tb.Live().LookupEq(ctx, "k", k, true, 0); err != nil || len(after) != 0 {
					t.Fatalf("LookupEq(%.10q) after DeleteWhere = %d rows, %v", k, len(after), err)
				}
			}
			if indexed {
				left -= 6 // the NULL rows no index entry led to
			}
			if left != 0 {
				t.Fatalf("%d rows survived deleting every key", left)
			}
		})
	}
}
