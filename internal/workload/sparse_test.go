package workload

import (
	"context"
	"strings"
	"testing"

	"xbench/internal/core"
	"xbench/internal/textgen"
)

// noNUL fails the test if an answer holds a NUL byte: the relational
// engines' NULL sentinel leaking into XML.
func noNUL(t *testing.T, who string, items []string) {
	t.Helper()
	for _, it := range items {
		if strings.ContainsRune(it, 0) {
			t.Errorf("%s answered %q: the NULL sentinel leaked", who, it)
		}
	}
}

// TestSparseUnitDocumentUpdates: a unit document is well formed with its
// parents absent — an order with no cc_xacts or order_lines, an article
// with no prolog or body. U1 and U2 store one on every engine (the absent
// parent shreds to NULL columns and no child rows, it does not panic the
// writer), and every query of the class still answers, with no NULL
// sentinel in it.
func TestSparseUnitDocumentUpdates(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		class              core.Class
		id, insert, update string
	}{
		{core.DCMD, "OZ", `<order id="OZ"/>`, `<order id="OZ"><cc_xacts/></order>`},
		{core.TCMD, "aZ", `<article id="aZ"/>`, `<article id="aZ"><prolog/></article>`},
	} {
		db := tinyDB(t, c.class)
		params := Params(c.class)
		params["X"] = c.id
		for _, e := range allEngines() {
			if _, _, err := LoadAndIndex(ctx, e, db); err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			if err := e.InsertDocument(ctx, "sparse.xml", []byte(c.insert)); err != nil {
				t.Errorf("%s U1 %s: %v", e.Name(), c.insert, err)
			}
			if err := e.ReplaceDocument(ctx, "sparse.xml", []byte(c.update)); err != nil {
				t.Errorf("%s U2 %s: %v", e.Name(), c.update, err)
			}
			for _, q := range QueryIDs(c.class) {
				res, err := e.Execute(ctx, q, params)
				if err != nil && !core.IsNotAnswered(err) {
					t.Errorf("%s %s/%s after the sparse updates: %v", e.Name(), c.class, q, err)
				}
				noNUL(t, e.Name()+" "+q.String(), res.Items)
			}
			e.Close()
		}
	}
}

// TestSparseAnswersMatchNative: where an element is absent, a relational
// engine answers what the native engine does. A copied element
// ($o/total, $q/a) that is absent is no item and no child; a string()
// constructor (<ship>, <phone>, <status>) of one is empty.
func TestSparseAnswersMatchNative(t *testing.T) {
	ctx := context.Background()
	dbs := []*core.Database{
		{Class: core.DCMD, Size: core.Small, Docs: []core.Doc{
			{Name: "customers.xml", Data: []byte(`<customers><customer id="C1"><c_fname>Ann</c_fname><c_lname>Lee</c_lname></customer></customers>`)},
			// No total, ship_type or order_status.
			{Name: "order1.xml", Data: []byte(`<order id="O1"><customer_id>C1</customer_id><order_date>1999-01-01</order_date><cc_xacts/><order_lines/></order>`)},
		}},
		{Class: core.TCSD, Size: core.Small, Docs: []core.Doc{
			// A quotation with no author.
			{Name: "dictionary.xml", Data: []byte(`<dictionary><entry id="E1"><hw>` + textgen.Headword(1) + `</hw><sense><def>d</def><qp>` +
				`<q><qd>1900</qd><qt>one</qt></q><q><qd>1800</qd><a>Bob</a><qt>two</qt></q></qp></sense></entry></dictionary>`)},
		}},
	}
	queries := map[core.Class][]core.QueryID{
		core.DCMD: {core.Q1, core.Q9, core.Q10, core.Q19},
		core.TCSD: {core.Q11},
	}
	for _, db := range dbs {
		engines := allEngines()
		for _, e := range engines {
			if e.Supports(db.Class, db.Size) != nil {
				continue
			}
			if _, _, err := LoadAndIndex(ctx, e, db); err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			defer e.Close()
		}
		for _, q := range queries[db.Class] {
			want, err := engines[0].Execute(ctx, q, Params(db.Class))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range engines[1:] {
				if e.Supports(db.Class, db.Size) != nil {
					continue
				}
				got, err := e.Execute(ctx, q, Params(db.Class))
				if err != nil {
					t.Errorf("%s %s/%s: %v", e.Name(), db.Class, q, err)
					continue
				}
				noNUL(t, e.Name()+" "+q.String(), got.Items)
				if strings.Join(got.Items, "|") != strings.Join(want.Items, "|") {
					t.Errorf("%s %s/%s = %q, native %q", e.Name(), db.Class, q, got.Items, want.Items)
				}
			}
		}
	}
}
