package rdbms

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"xbench/internal/core"
	"xbench/internal/gen"
	"xbench/internal/plan"
	"xbench/internal/queries"
)

func TestRejectsSingleDocumentClasses(t *testing.T) {
	e := New(Xcolumn, 0, 0)
	for _, class := range []core.Class{core.TCSD, core.DCSD} {
		if err := e.Supports(class, core.Small); !errors.Is(err, core.ErrUnsupported) {
			t.Errorf("Supports(%s) = %v, want ErrUnsupported", class, err)
		}
		db := &core.Database{Class: class, Size: core.Small}
		if _, err := e.Load(context.Background(), db); !errors.Is(err, core.ErrUnsupported) {
			t.Errorf("Load(%s) = %v, want ErrUnsupported", class, err)
		}
	}
}

func TestQ12ReturnsIntactFragment(t *testing.T) {
	e := loadTiny(t, Xcolumn, core.DCMD)
	res, err := e.Execute(context.Background(), core.Q12, core.Params{"X": "O1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || !strings.HasPrefix(res.Items[0], "<cc_xacts>") {
		t.Fatalf("Q12 = %v", res.Items)
	}
	if !res.OrderGuaranteed {
		t.Fatal("Xcolumn preserves order via dxx_seqno and intact CLOBs")
	}
}

func TestQ5UsesDocumentOrder(t *testing.T) {
	e := loadTiny(t, Xcolumn, core.DCMD)
	res, err := e.Execute(context.Background(), core.Q5, core.Params{"X": "O1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || !strings.HasPrefix(res.Items[0], "<order_line>") {
		t.Fatalf("Q5 = %v", res.Items)
	}
}

func TestQ16ReturnsWholeDocument(t *testing.T) {
	e := loadTiny(t, Xcolumn, core.DCMD)
	res, err := e.Execute(context.Background(), core.Q16, core.Params{"X": "O1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || !strings.HasPrefix(res.Items[0], `<order id="O1">`) {
		t.Fatalf("Q16 = %.80s", res.Items[0])
	}
}

func TestTCMDQueries(t *testing.T) {
	e := loadTiny(t, Xcolumn, core.TCMD)
	res, err := e.Execute(context.Background(), core.Q1, core.Params{"X": "a2"})
	if err != nil || len(res.Items) != 1 {
		t.Fatalf("Q1: %v %v", res.Items, err)
	}
	res, err = e.Execute(context.Background(), core.Q8, core.Params{"X": "a2"})
	if err != nil || len(res.Items) == 0 {
		t.Fatalf("Q8: %v %v", res.Items, err)
	}
	for _, it := range res.Items {
		if !strings.HasPrefix(it, "<heading>") {
			t.Fatalf("Q8 item %q", it)
		}
	}
}

func TestQ17ScansAllCLOBs(t *testing.T) {
	e := loadTiny(t, Xcolumn, core.TCMD)
	e.ColdReset()
	before := e.PageIO()
	if _, err := e.Execute(context.Background(), core.Q17, core.Params{"W2": "system"}); err != nil {
		t.Fatal(err)
	}
	// Scanning every CLOB must read essentially the whole database.
	if e.PageIO() == before {
		t.Fatal("CLOB scan performed no I/O")
	}
}

// TestSectionsStayAScanAfterAnUpdate: the first update builds a doc index
// on every side table (ApplyDelete), which the DAD does not declare and
// the modeled queries do not use. After one U2, TC/MD Q5 and Q8 still find
// the article's sections by scanning sec_side: cold, they make the same
// index probes and read the same pages as before it.
func TestSectionsStayAScanAfterAnUpdate(t *testing.T) {
	ctx := context.Background()
	db, err := gen.Config{Seed: 7}.Generate(core.TCMD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Xcolumn, 0, 0)
	if _, err := e.Load(ctx, db); err != nil {
		t.Fatal(err)
	}
	if err := e.BuildIndexes(queries.Indexes(core.TCMD)); err != nil {
		t.Fatal(err)
	}
	type cost struct{ probes, pages int64 }
	cold := func() map[core.QueryID]cost {
		t.Helper()
		out := map[core.QueryID]cost{}
		for _, q := range []core.QueryID{core.Q5, core.Q8} {
			e.ColdReset()
			probes := e.Metrics().Counter("relational.probe")
			before, io := probes.Value(), e.PageIO()
			res, err := e.Execute(ctx, q, core.Params{"X": "a1"})
			if err != nil || len(res.Items) == 0 {
				t.Fatalf("%s = %v, %v", q, res.Items, err)
			}
			out[q] = cost{probes.Value() - before, e.PageIO() - io}
		}
		return out
	}
	loaded := cold()
	last := db.Docs[len(db.Docs)-1]
	if err := e.ReplaceDocument(ctx, last.Name, last.Data); err != nil {
		t.Fatal(err)
	}
	if updated := cold(); !reflect.DeepEqual(updated, loaded) {
		t.Errorf("(probes, pages) of Q5 and Q8 after a U2 = %v, before it %v", updated, loaded)
	}
}

func TestUndefinedQuery(t *testing.T) {
	e := loadTiny(t, Xcolumn, core.DCMD)
	if _, err := e.Execute(context.Background(), core.Q20, nil); !errors.Is(err, core.ErrNoQuery) {
		t.Fatalf("want ErrNoQuery, got %v", err)
	}
}

// TestPinnedQ17KeepsItsEpoch holds Q17's pass over the CLOB heap to the
// reader's epoch: a view pinned before a U3 still finds the deleted order
// and one pinned after it does not, and neither answer changes when a
// later U1 stores the order again in the extent the U3 freed.
func TestPinnedQ17KeepsItsEpoch(t *testing.T) {
	ctx := context.Background()
	db, err := gen.Config{DictEntries: 30, Articles: 5, Items: 20, Orders: 30}.Generate(core.DCMD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Xcolumn, 0, 0)
	if _, err := e.Load(ctx, db); err != nil {
		t.Fatal(err)
	}
	// The victim is an order with a comment; Q17 searches the comment's
	// longest word.
	var victim core.Doc
	var word string
	for _, d := range db.Docs[len(db.Docs)/2:] {
		_, text, ok := strings.Cut(string(d.Data), "<comment>")
		if text, _, _ = strings.Cut(text, "</comment>"); !ok || !strings.Contains(string(d.Data), "<order ") {
			continue
		}
		for _, w := range strings.FieldsFunc(strings.ToLower(text), func(r rune) bool { return r < 'a' || r > 'z' }) {
			if len(w) > len(word) {
				victim, word = d, w
			}
		}
		if word != "" {
			break
		}
	}
	if word == "" {
		t.Fatal("no order with a comment in the second half of the database")
	}
	pinned := func() view {
		t.Helper()
		v, release, err := e.View()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(release)
		return v
	}
	q17 := func(v view) []string {
		t.Helper()
		ph, err := plan.Plan(queries.Lookup(core.DCMD, core.Q17), v.Stats())
		if err != nil {
			t.Fatal(err)
		}
		res, err := v.Exec(ctx, ph, core.Params{"W2": word})
		if err != nil {
			t.Fatal(err)
		}
		return res.Items
	}
	before := pinned()
	held := q17(before)
	if err := e.DeleteDocument(ctx, victim.Name); err != nil {
		t.Fatal(err)
	}
	after := pinned()
	gone := q17(after)
	var lost []string
	for _, it := range held {
		if !slices.Contains(gone, it) {
			lost = append(lost, it)
		}
	}
	if len(gone) != len(held)-1 || len(lost) != 1 {
		t.Fatalf("Q17 %q pinned before the U3 = %v, after it = %v: want one order fewer", word, held, gone)
	}
	if !slices.Equal(q17(before), held) {
		t.Fatal("the U3 changed the answer of a view pinned before it")
	}
	if err := e.InsertDocument(ctx, victim.Name, victim.Data); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(q17(before), held) || !slices.Equal(q17(after), gone) {
		t.Fatal("a U1 changed the answer of a view pinned before it")
	}
	if latest := q17(pinned()); !slices.Contains(latest, lost[0]) {
		t.Fatalf("the view after the U1 = %v, want it to hold %s again", latest, lost[0])
	}
}
