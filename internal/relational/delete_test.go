package relational

import (
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
func rebuilt(t *testing.T, rows []Row, indexed []string) *Table {
	t.Helper()
	tb := newDB().Create("ref", "doc", "grp", "val")
	for _, r := range rows {
		if err := tb.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range indexed {
		if err := tb.CreateIndex(c); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// multiset renders rows order-free: heap order differs between a table
// that reused dead extents and one loaded fresh.
func multiset(rows []Row) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(keys)
	return fmt.Sprintf("%d rows\n%s", len(rows), strings.Join(keys, "\n"))
}

func scanRows(t *testing.T, tb *Table) []Row {
	t.Helper()
	var rows []Row
	if err := tb.Scan(context.Background(), func(r Rec) bool {
		rows = append(rows, r.Row())
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
					if err := tb.Insert(row); err != nil {
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
				ref := rebuilt(t, model, indexed)
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
						got, err := tb.LookupEq(ctx, col, v)
						if err != nil {
							t.Fatal(err)
						}
						want, _ := ref.LookupEq(ctx, col, v)
						if multiset(got) != multiset(want) {
							t.Fatalf("step %d: LookupEq(%s, %.10q): %d rows, rebuilt table has %d", step, col, v, len(got), len(want))
						}
					}
				}
				for _, rg := range [][3]string{{"doc", "d1", "d5"}, {"doc", "", "\xff"}, {"grp", "g2", "g4"}, {"doc", "C", "E"}} {
					got, err := tb.LookupRange(ctx, rg[0], rg[1], rg[2])
					if err != nil {
						t.Fatal(err)
					}
					want, _ := ref.LookupRange(ctx, rg[0], rg[1], rg[2])
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
