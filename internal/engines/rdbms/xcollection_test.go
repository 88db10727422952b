package rdbms

import (
	"context"
	"errors"
	"strings"
	"testing"

	"xbench/internal/core"
	"xbench/internal/gen"
	"xbench/internal/pager"
	"xbench/internal/queries"
	"xbench/internal/shredder"
	"xbench/internal/xmlschema"
)

func loadTiny(t *testing.T, pol Policy, class core.Class) *Engine {
	t.Helper()
	cfg := gen.Config{DictEntries: 30, Articles: 5, Items: 20, Orders: 30}
	db, err := cfg.Generate(class, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	e := New(pol, 0, 0)
	if _, err := e.Load(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	if err := e.BuildIndexes(queries.Indexes(class)); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSupportMatrix(t *testing.T) {
	e := New(Xcollection, 0, 0)
	if err := e.Supports(core.TCSD, core.Normal); !errors.Is(err, core.ErrUnsupported) {
		t.Fatal("TC/SD Normal should exceed the decomposition row limit")
	}
	if err := e.Supports(core.DCMD, core.Large); err != nil {
		t.Fatalf("DC/MD Large should load: %v", err)
	}
}

func TestSupportsEverything(t *testing.T) {
	e := New(SQLServer, 0, 0)
	for _, class := range core.Classes {
		for _, size := range core.Sizes {
			if err := e.Supports(class, size); err != nil {
				t.Errorf("SQL Server should support %s %s: %v", class, size, err)
			}
		}
	}
}

func TestLoadRejectsUnsupported(t *testing.T) {
	cfg := gen.Config{DictEntries: 10}
	db, err := cfg.Generate(core.TCSD, core.Normal)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Xcollection, 0, 0)
	if _, err := e.Load(context.Background(), db); !errors.Is(err, core.ErrUnsupported) {
		t.Fatalf("Load accepted unsupported combination: %v", err)
	}
}

func TestAutoKeyIndexesBuilt(t *testing.T) {
	e := loadTiny(t, Xcollection, core.DCMD)
	v, release, err := e.View()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	for _, tc := range []struct{ table, col string }{
		{"order_tab", "id"},
		{"order_line_tab", "order_id"},
		{"customer_tab", "id"},
	} {
		if v.src.DB.Table(tc.table).IndexHeight(tc.col) == 0 {
			t.Errorf("%s.%s not auto-indexed during bulk load", tc.table, tc.col)
		}
	}
}

func TestTargetColumnMapping(t *testing.T) {
	cases := []struct {
		class  core.Class
		target string
		table  string
		ok     bool
	}{
		{core.TCSD, "hw", "entry_tab", true},
		{core.TCMD, "article/@id", "article_tab", true},
		{core.DCSD, "item/@id", "item_tab", true},
		{core.DCSD, "date_of_release", "item_tab", true},
		{core.DCMD, "order/@id", "order_tab", true},
		{core.DCMD, "bogus", "", false},
	}
	for _, c := range cases {
		table, _, ok := shredder.TargetColumn(c.class, xmlschema.Shredded, c.target)
		if ok != c.ok || table != c.table {
			t.Errorf("TargetColumn(%s, %s) = %s, %v", c.class, c.target, table, ok)
		}
	}
}

func TestQ5FlagsOrder(t *testing.T) {
	e := loadTiny(t, Xcollection, core.DCMD)
	res, err := e.Execute(context.Background(), core.Q5, core.Params{"X": "O1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || !strings.HasPrefix(res.Items[0], "<order_line>") {
		t.Fatalf("Q5 = %v", res.Items)
	}
	if res.OrderGuaranteed {
		t.Fatal("shredded Q5 must not guarantee order")
	}
}

func TestMixedContentDroppedDuringLoad(t *testing.T) {
	cfg := gen.Config{DictEntries: 30}
	db, err := cfg.Generate(core.TCSD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	e := New(SQLServer, 0, 0)
	st, err := e.Load(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if st.SkippedMixed == 0 {
		t.Fatal("no mixed content counted as dropped")
	}
	if st.Rows == 0 {
		t.Fatal("no rows produced")
	}
}

func TestQ8DropsQtText(t *testing.T) {
	e := loadTiny(t, SQLServer, core.TCSD)
	// Pick the first headword directly from the published view.
	v, release, err := e.View()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	et := v.src.DB.Table("entry_tab")
	rows, err := et.LookupRange(context.Background(), "hw", "", "\xff", true)
	if err != nil || len(rows) == 0 {
		t.Fatal("no entries", err)
	}
	hw := string(rows[0].Col(et.Col("hw")))
	res, err := e.Execute(context.Background(), core.Q8, core.Params{"W": hw})
	if err != nil {
		t.Fatal(err)
	}
	if !res.MixedContentLost {
		t.Fatal("Q8 should flag mixed content loss")
	}
	for _, it := range res.Items {
		if strings.Contains(it, "<qt>") && it != "<qt/>" {
			t.Fatalf("qt text survived the unmappable-content drop: %s", it)
		}
	}
}

// stopAfter is a context whose Err turns Canceled after n calls. LoadDocs
// asks once per document, so the load stops with exactly n shredded.
type stopAfter struct {
	context.Context
	n int
}

func (c *stopAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestLoadCommitsEachDocument: each document of a load is committed
// before the next is shredded — both modeled loaders work
// document-at-a-time, and that per-document I/O is what Table 4 prices.
// A load stopped after n documents has written pages for each of them
// and left nothing dirty for a later sync to write. (The shredder only
// inserts; the commit is this package's load loop.)
func TestLoadCommitsEachDocument(t *testing.T) {
	db, err := gen.Config{Orders: 8}.Generate(core.DCMD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	var last int64
	for n := 1; n <= 4; n++ {
		p := pager.New(128)
		st, err := (&store{pol: SQLServer, p: p}).LoadDocs(&stopAfter{context.Background(), n}, db)
		if !errors.Is(err, context.Canceled) || st.Documents != n {
			t.Fatalf("load stopped after %d documents: %d loaded, %v", n, st.Documents, err)
		}
		writes := p.Metrics().Counter("pager.write").Value()
		if writes <= last {
			t.Fatalf("document %d was shredded without a page written: %d writes, %d after the one before", n, writes, last)
		}
		last = writes
		if err := p.SyncAll(); err != nil {
			t.Fatal(err)
		}
		if extra := p.Metrics().Counter("pager.write").Value() - writes; extra != 0 {
			t.Fatalf("%d documents loaded, %d dirty pages left behind", n, extra)
		}
		p.Close()
	}
}

// TestOverLimitUpdateRefused: a unit document that decomposes into more
// rows than DB2's limit is refused before the mutation bracket opens, so
// the engine keeps answering. Checked only after the shredder had
// inserted its rows, the limit used to fail the update inside the
// bracket, which stopped the engine: every later request answered "not
// loaded".
func TestOverLimitUpdateRefused(t *testing.T) {
	ctx := context.Background()
	e := New(Xcollection, 0, 10)
	defer e.Close()
	article := func(id string, keywords int) []byte {
		return []byte(`<article id="` + id + `"><prolog><title>T ` + id + `</title>` +
			`<authors><author><name>N</name></author></authors><keywords>` +
			strings.Repeat("<kw>k</kw>", keywords) + `</keywords></prolog>` +
			`<body><sec id="` + id + `.1"><p>x</p></sec></body></article>`)
	}
	db := &core.Database{Class: core.TCMD, Size: core.Small, Docs: []core.Doc{
		{Name: "article1.xml", Data: article("a1", 1)}, // 5 rows
	}}
	if _, err := e.Load(ctx, db); err != nil {
		t.Fatal(err)
	}
	if err := e.InsertDocument(ctx, "article2.xml", article("a2", 8)); !errors.Is(err, core.ErrUnsupported) {
		t.Fatalf("U1 of a 12-row article under a 10-row limit = %v", err)
	}
	res, err := e.Execute(ctx, core.Q1, core.Params{"X": "a1"})
	if err != nil || len(res.Items) != 1 {
		t.Fatalf("Q1 after the refused U1 = %v, %v", res.Items, err)
	}
	if res, err := e.Execute(ctx, core.Q1, core.Params{"X": "a2"}); err != nil || len(res.Items) != 0 {
		t.Fatalf("the refused article is visible: %v, %v", res.Items, err)
	}
}
