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
	"xbench/internal/pager"
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
	res, err := e.Execute(context.Background(), core.Q17, core.Params{"W2": "system"})
	if err != nil {
		t.Fatal(err)
	}
	// Scanning every CLOB must read essentially the whole database.
	if res.PageIO == 0 {
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
			before := probes.Value()
			res, err := e.Execute(ctx, q, core.Params{"X": "a1"})
			if err != nil || len(res.Items) == 0 {
				t.Fatalf("%s = %v, %v", q, res.Items, err)
			}
			out[q] = cost{probes.Value() - before, res.PageIO}
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

// TestFrozenRIDListsKeepTheirEpoch holds Freeze's shared rid list to its
// epoch: a view frozen before a U3 still lists the deleted CLOB's rid and
// one frozen after it does not, and neither changes when a later U1
// appends a rid to the list they share an array with.
func TestFrozenRIDListsKeepTheirEpoch(t *testing.T) {
	ctx := context.Background()
	db, err := gen.Config{DictEntries: 30, Articles: 5, Items: 20, Orders: 30}.Generate(core.DCMD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Xcolumn, 0, 0)
	if _, err := e.Load(ctx, db); err != nil {
		t.Fatal(err)
	}
	frozen := func() []pager.RID {
		t.Helper()
		v, release, err := e.View()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(release)
		return v.src.RIDs
	}
	before := frozen()
	held := slices.Clone(before)
	victim := db.Docs[len(db.Docs)/2]
	if err := e.DeleteDocument(ctx, victim.Name); err != nil {
		t.Fatal(err)
	}
	after := frozen()
	if len(after) != len(held)-1 {
		t.Fatalf("the view after the U3 lists %d rids, want %d", len(after), len(held)-1)
	}
	var gone []pager.RID
	for _, rid := range held {
		if !slices.Contains(after, rid) {
			gone = append(gone, rid)
		}
	}
	if len(gone) != 1 || !slices.Contains(before, gone[0]) {
		t.Fatalf("rids missing after the U3: %v; the view before it lists %d", gone, len(before))
	}
	heldAfter := slices.Clone(after)
	if err := e.InsertDocument(ctx, victim.Name, victim.Data); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(before, held) || !slices.Equal(after, heldAfter) {
		t.Fatal("a U1 changed the rid list of a view frozen before it")
	}
	if latest := frozen(); len(latest) != len(after)+1 || !slices.Equal(latest[:len(after)], after) {
		t.Fatalf("the view after the U1 lists %d rids, want the %d before it and one more", len(latest), len(after))
	}
}
