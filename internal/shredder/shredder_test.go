package shredder

import (
	"context"
	"errors"
	"strings"
	"testing"

	"xbench/internal/core"
	"xbench/internal/pager"
	"xbench/internal/relational"
	"xbench/internal/xmldom"
	"xbench/internal/xmlschema"
)

func newStore(class core.Class, opts Options) *Store {
	return NewStore(class, xmlschema.Shredded, relational.NewDB(pager.New(128)), opts)
}

const orderDoc = `<order id="O1">
	<customer_id>C1</customer_id><order_date>2000-05-05</order_date>
	<sub_total>10</sub_total><tax>0.8</tax><total>10.8</total>
	<ship_type>AIR</ship_type><ship_date>2000-05-07</ship_date>
	<ship_addr_id>A1</ship_addr_id><order_status>SHIPPED</order_status>
	<cc_xacts><cc_type>VISA</cc_type><cc_number>4111</cc_number>
	<cc_name>Ada A</cc_name><cc_expiry>2002-01-01</cc_expiry>
	<cc_auth_id>AUTH1</cc_auth_id><total_amount>10.8</total_amount></cc_xacts>
	<order_lines>
	  <order_line><item_id>I1</item_id><qty>1</qty><discount>0</discount></order_line>
	  <order_line><item_id>I2</item_id><qty>2</qty><discount>5</discount><comment>fast please</comment></order_line>
	</order_lines></order>`

func TestShredOrder(t *testing.T) {
	s := newStore(core.DCMD, Options{})
	rows, err := s.ShredDocument("order1.xml", mustRecord(orderDoc))
	if err != nil {
		t.Fatal(err)
	}
	if rows != 3 { // 1 order + 2 lines
		t.Fatalf("rows = %d", rows)
	}
	ot := s.DB.Table("order_tab").Live()
	got, err := ot.LookupEq(context.Background(), "id", "O1", true, 0)
	if err != nil || len(got) != 1 {
		t.Fatalf("order row: %v %v", got, err)
	}
	r := got[0].Row()
	if r[ot.Col("cc_type")] != "VISA" {
		t.Fatal("CC_XACTS not folded into order_tab")
	}
	if !relational.IsNull(r[ot.Col("ship_country")]) {
		t.Fatal("absent ship_country should be NULL")
	}
	lt := s.DB.Table("order_line_tab").Live()
	lrows, _ := lt.LookupEq(context.Background(), "order_id", "O1", true, 0)
	if len(lrows) != 2 {
		t.Fatalf("lines = %d", len(lrows))
	}
	if !relational.IsNull(lrows[0].Row()[lt.Col("comment")]) || relational.IsNull(lrows[1].Row()[lt.Col("comment")]) {
		t.Fatal("comment NULL handling wrong")
	}
}

func TestShredDictionaryMixedContent(t *testing.T) {
	dict := `<dictionary><entry id="e1"><hw>alpha</hw><pos>n.</pos>
		<etym>From <cr target="e2">beta</cr> roots.</etym>
		<sense><def>first letter</def>
		<qp><q><qd>1999-01-01</qd><a>Ada Adams</a><loc>London</loc>
		<qt>quote <i>emphasis</i> more</qt></q></qp></sense></entry>
		<entry id="e2"><hw>beta</hw><pos>n.</pos>
		<sense><def>second letter</def></sense></entry></dictionary>`

	keep := newStore(core.TCSD, Options{})
	if _, err := keep.ShredDocument("dictionary.xml", mustRecord(dict)); err != nil {
		t.Fatal(err)
	}
	qt := keep.DB.Table("quote_tab").Live()
	qrows, _ := qt.LookupEq(context.Background(), "entry_id", "e1", true, 0)
	if len(qrows) != 1 {
		t.Fatalf("quotes = %d", len(qrows))
	}
	if got := qrows[0].Row()[qt.Col("qt")]; !strings.Contains(got, "emphasis") {
		t.Fatalf("flattened qt = %q", got)
	}
	if keep.SkippedMixed != 0 {
		t.Fatal("non-dropping store counted skipped mixed content")
	}

	drop := newStore(core.TCSD, Options{DropMixed: true})
	if _, err := drop.ShredDocument("dictionary.xml", mustRecord(dict)); err != nil {
		t.Fatal(err)
	}
	if drop.SkippedMixed == 0 {
		t.Fatal("dropping store counted no skipped mixed content")
	}
	qt2 := drop.DB.Table("quote_tab").Live()
	qrows2, _ := qt2.LookupEq(context.Background(), "entry_id", "e1", true, 0)
	if got := qrows2[0].Row()[qt2.Col("qt")]; got != "" {
		t.Fatalf("dropped qt should be empty (present, text lost), got %q", got)
	}
	// etym is present: NULL only for e2 where it is truly missing.
	et := drop.DB.Table("entry_tab").Live()
	e1, _ := et.LookupEq(context.Background(), "id", "e1", true, 0)
	e2, _ := et.LookupEq(context.Background(), "id", "e2", true, 0)
	if relational.IsNull(e1[0].Row()[et.Col("etym")]) {
		t.Fatal("present etym should not be NULL even when text dropped")
	}
	if !relational.IsNull(e2[0].Row()[et.Col("etym")]) {
		t.Fatal("missing etym should be NULL")
	}
}

func TestShredArticleRecursion(t *testing.T) {
	art := `<article id="a1"><prolog><title>T</title>
		<authors><author><name>N</name><contact></contact></author></authors>
		<keywords><kw>data</kw><kw>system</kw></keywords></prolog>
		<body><sec id="s1"><heading>Introduction</heading><p>p1</p>
		<sec id="s1.1"><p>nested</p></sec></sec>
		<sec id="s2"><heading>More</heading><p>p2</p></sec></body>
		<epilog><references><a_id target="a9">article 9</a_id></references></epilog></article>`
	s := newStore(core.TCMD, Options{})
	if _, err := s.ShredDocument("article1.xml", mustRecord(art)); err != nil {
		t.Fatal(err)
	}
	st := s.DB.Table("sec_tab").Live()
	rows, _ := st.LookupEq(context.Background(), "article_id", "a1", true, 0)
	if len(rows) != 3 {
		t.Fatalf("secs = %d", len(rows))
	}
	// The nested section must point at its parent via the unique id
	// (the paper's chain-relationship fix).
	var nestedParent string
	for _, rec := range rows {
		if r := rec.Row(); r[st.Col("id")] == "s1.1" {
			nestedParent = r[st.Col("parent_sec")]
		}
	}
	if nestedParent != "s1" {
		t.Fatalf("nested sec parent = %q", nestedParent)
	}
	if s.DB.Table("kw_tab").Live().Count() != 2 {
		t.Fatal("keywords not shredded")
	}
	if s.DB.Table("ref_tab").Live().Count() != 1 {
		t.Fatal("references not shredded")
	}
	// Empty contact is stored as empty string, not NULL (Q15 vs Q14).
	at := s.DB.Table("art_author_tab").Live()
	arows, _ := at.LookupEq(context.Background(), "article_id", "a1", true, 0)
	if v := arows[0].Row()[at.Col("contact")]; relational.IsNull(v) || v != "" {
		t.Fatalf("empty contact stored as %q", v)
	}
}

func TestRowLimit(t *testing.T) {
	s := newStore(core.DCMD, Options{RowLimitPerDoc: 2})
	_, err := s.ShredDocument("order1.xml", mustRecord(orderDoc))
	if !errors.Is(err, core.ErrUnsupported) {
		t.Fatalf("row limit did not trip: %v", err)
	}
}

func TestUnknownRootRejected(t *testing.T) {
	s := newStore(core.DCMD, Options{})
	if _, err := s.ShredDocument("x.xml", mustRecord(`<bogus/>`)); err == nil {
		t.Fatal("unknown root accepted")
	}
}

// TestShreddedCascadeIsKeyed: every column the shredded delete cascade
// deletes by is an id or *_id column, which the shredding engines index
// during bulk load, so the cascade's "index first" builds nothing after a
// load; the side tables' doc columns are indexed by Xcolumn's first
// delete instead.
func TestShreddedCascadeIsKeyed(t *testing.T) {
	for _, class := range []core.Class{core.DCMD, core.TCMD} {
		for m, want := range map[xmlschema.Mapping]func(string) bool{
			xmlschema.Shredded: func(col string) bool { return col == "id" || strings.HasSuffix(col, "_id") },
			xmlschema.DAD:      func(col string) bool { return col == "doc" },
		} {
			cascade := mappings[class][m].cascade
			if len(cascade) == 0 || m == xmlschema.DAD && len(cascade) != len(mappings[class][m].tables) {
				t.Errorf("%s mapping %d: a delete cascade of %d tables", class, m, len(cascade))
			}
			for _, c := range cascade {
				if !want(c.col) {
					t.Errorf("%s mapping %d: the cascade deletes %s by %s", class, m, c.table, c.col)
				}
			}
		}
	}
}

// mustRecord parses src into a fresh record, as a load hands documents to
// the shredder.
func mustRecord(src string) *xmldom.Record {
	rec := new(xmldom.Record)
	if err := xmldom.ParseRecord(rec, []byte(src)); err != nil {
		panic(err)
	}
	return rec
}
