package gen

import (
	"bytes"
	"encoding/xml"
	"io"
	"strings"
	"testing"

	"xbench/internal/core"
	"xbench/internal/textgen"
	"xbench/internal/xmldom"
	"xbench/internal/xmlschema"
)

// tiny returns a fast configuration for tests.
func tiny() Config {
	return Config{DictEntries: 40, Articles: 6, Items: 25, Orders: 40}
}

func TestGenerateAllClassesParseAndValidate(t *testing.T) {
	for _, class := range core.Classes {
		db, err := tiny().Generate(class, core.Small)
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		if db.Class != class || db.Size != core.Small || len(db.Docs) == 0 {
			t.Fatalf("%s: bad database descriptor", class)
		}
		schema := xmlschema.For(class)
		rec := new(xmldom.Record)
		for _, d := range db.Docs {
			if err := xmldom.ParseRecord(rec, d.Data); err != nil {
				t.Fatalf("%s %s: unparseable: %v", class, d.Name, err)
			}
			if err := schema.Validate(rec); err != nil {
				t.Fatalf("%s %s: schema violation: %v", class, d.Name, err)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, class := range core.Classes {
		a, err := tiny().Generate(class, core.Small)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tiny().Generate(class, core.Small)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Docs) != len(b.Docs) {
			t.Fatalf("%s: doc count differs", class)
		}
		for i := range a.Docs {
			if a.Docs[i].Name != b.Docs[i].Name || !bytes.Equal(a.Docs[i].Data, b.Docs[i].Data) {
				t.Fatalf("%s: doc %s not byte-identical across generations", class, a.Docs[i].Name)
			}
		}
	}
}

func TestSeedChangesData(t *testing.T) {
	cfg1, cfg2 := tiny(), tiny()
	cfg2.Seed = 99
	a, _ := cfg1.Generate(core.TCSD, core.Small)
	b, _ := cfg2.Generate(core.TCSD, core.Small)
	if bytes.Equal(a.Docs[0].Data, b.Docs[0].Data) {
		t.Fatal("different seeds gave identical dictionary")
	}
}

func TestSizeScaling(t *testing.T) {
	small, err := tiny().Generate(core.DCMD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	normal, err := tiny().Generate(core.DCMD, core.Normal)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(normal.Bytes()) / float64(small.Bytes())
	if ratio < 6 || ratio > 14 {
		t.Fatalf("Normal/Small byte ratio = %.1f, want ~10", ratio)
	}
	// Document count for DC/MD also scales ~10x (order documents dominate).
	if len(normal.Docs) < 8*len(small.Docs) {
		t.Fatalf("DC/MD doc count did not scale: %d -> %d", len(small.Docs), len(normal.Docs))
	}
}

func TestDictionaryStructure(t *testing.T) {
	db, err := tiny().Generate(core.TCSD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	if db.Docs[0].Name != "dictionary.xml" {
		t.Fatalf("doc name %q", db.Docs[0].Name)
	}
	n, err := DictionaryEntryCount(db.Docs[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Fatalf("entry_num not honored: %d entries", n)
	}
	root := parseXML(t, db.Docs[0].Data)
	entries := root.children("entry")
	// Workload binding: entry i has headword Headword(i) and id e<i+1>.
	for i, e := range entries[:5] {
		if hw := e.child("hw").text; hw != textgen.Headword(i) {
			t.Fatalf("entry %d hw = %q, want %q", i, hw, textgen.Headword(i))
		}
		if id := e.attrs["id"]; id != "e"+string(rune('1'+i)) {
			t.Fatalf("entry %d id = %q", i, id)
		}
	}
	// Mixed content must actually occur (qt elements).
	mixed := 0
	root.walk(func(e *elem, _ int) {
		if e.name == "qt" && e.mixed() {
			mixed++
		}
	})
	if mixed == 0 {
		t.Fatal("no mixed-content qt elements generated")
	}
}

func TestArticlesStructure(t *testing.T) {
	db, err := tiny().Generate(core.TCMD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Docs) != 6 {
		t.Fatalf("article_num not honored: %d docs", len(db.Docs))
	}
	sawNested, sawEmptyContact, sawIntro := false, false, false
	leadAuthors := map[string]bool{}
	for i, d := range db.Docs {
		root := parseXML(t, d.Data)
		if id := root.attrs["id"]; id != "a"+string(rune('1'+i)) {
			t.Fatalf("article %d id = %q", i, id)
		}
		secs := root.child("body").children("sec")
		if len(secs) < 2 {
			t.Fatalf("article %d has %d top-level sections, want >= 2", i, len(secs))
		}
		if h := secs[0].child("heading"); h != nil && h.text == "Introduction" {
			sawIntro = true
		}
		for _, s := range secs {
			if len(s.children("sec")) > 0 {
				sawNested = true
			}
		}
		for _, a := range root.child("prolog").child("authors").children("author") {
			if c := a.child("contact"); c != nil && c.text == "" {
				sawEmptyContact = true
			}
		}
		lead := root.child("prolog").child("authors").
			children("author")[0].child("name").text
		leadAuthors[lead] = true
		if lead != textgen.FullName(i%AuthorPoolSize) {
			t.Fatalf("article %d lead author %q, want %q", i, lead, textgen.FullName(i%AuthorPoolSize))
		}
	}
	if !sawIntro {
		t.Fatal("no article has an Introduction section (Q4 undefined)")
	}
	if !sawNested {
		t.Fatal("no recursive sec-in-sec instances generated")
	}
	if !sawEmptyContact {
		t.Fatal("no empty contact elements generated (Q15 undefined)")
	}
}

func TestCatalogStructure(t *testing.T) {
	db, err := tiny().Generate(core.DCSD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	root := parseXML(t, db.Docs[0].Data)
	items := root.children("item")
	if len(items) != 25 {
		t.Fatalf("item count = %d", len(items))
	}
	if id := items[0].attrs["id"]; id != "I1" {
		t.Fatalf("first item id = %q", id)
	}
	// Depth from the recursive join: item -> authors -> author ->
	// contact_information -> mailing_address -> name_of_country.
	found := false
	root.walk(func(e *elem, _ int) {
		found = found || e.name == "name_of_country"
	})
	if !found {
		t.Fatal("join depth missing: no name_of_country under authors")
	}
	// Q14 needs publishers without FAX_number.
	without := 0
	for _, it := range items {
		if p := it.child("publisher"); p != nil && p.child("FAX_number") == nil {
			without++
		}
	}
	if without == 0 {
		t.Fatal("every publisher has a fax number; Q14 would be empty")
	}
}

func TestOrdersStructure(t *testing.T) {
	db, err := tiny().Generate(core.DCMD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	// 40 orders + 5 flat documents.
	if len(db.Docs) != 45 {
		t.Fatalf("doc count = %d, want 45", len(db.Docs))
	}
	names := map[string]bool{}
	for _, d := range db.Docs {
		names[d.Name] = true
	}
	for _, want := range []string{"order1.xml", "order40.xml", "customers.xml",
		"items.xml", "authors.xml", "addresses.xml", "countries.xml"} {
		if !names[want] {
			t.Fatalf("missing document %s", want)
		}
	}
	var order1 core.Doc
	for _, d := range db.Docs {
		if d.Name == "order1.xml" {
			order1 = d
		}
	}
	root := parseXML(t, order1.Data)
	if id := root.attrs["id"]; id != "O1" {
		t.Fatalf("order1 id = %q", id)
	}
	lines := root.child("order_lines").children("order_line")
	if len(lines) == 0 {
		t.Fatal("order1 has no order lines")
	}
	if root.child("cc_xacts") == nil {
		t.Fatal("order1 missing cc_xacts")
	}
	// The customer referenced by order1 must exist in customers.xml (Q19).
	custID := root.child("customer_id").text
	var custDoc core.Doc
	for _, d := range db.Docs {
		if d.Name == "customers.xml" {
			custDoc = d
		}
	}
	found := false
	for _, c := range parseXML(t, custDoc.Data).children("customer") {
		if c.attrs["id"] == custID {
			found = true
		}
	}
	if !found {
		t.Fatalf("order1 customer %s not in customers.xml", custID)
	}
}

func TestFlatDocumentsAreFlat(t *testing.T) {
	db, err := tiny().Generate(core.DCMD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range db.Docs {
		if !strings.HasSuffix(d.Name, "s.xml") || strings.HasPrefix(d.Name, "order") {
			continue
		}
		// FT mapping: root -> tuple elements -> column leaves; depth 3.
		maxDepth := 0
		parseXML(t, d.Data).walk(func(_ *elem, depth int) {
			maxDepth = max(maxDepth, depth)
		})
		if maxDepth > 3 {
			t.Fatalf("%s: flat translation has depth %d", d.Name, maxDepth)
		}
	}
}

func TestAnalyzedCorporaTable(t *testing.T) {
	if len(AnalyzedCorpora) != 4 {
		t.Fatalf("Table 2 has 4 rows, got %d", len(AnalyzedCorpora))
	}
	if AnalyzedCorpora[0].Name != "GCIDE" || AnalyzedCorpora[2].Files != 807000 {
		t.Fatal("Table 2 rows corrupted")
	}
}

func TestQuoteLocationsDomain(t *testing.T) {
	locs := QuoteLocations()
	if len(locs) < 5 {
		t.Fatalf("quotation location domain too small: %d", len(locs))
	}
	locs[0] = "mutated"
	if QuoteLocations()[0] == "mutated" {
		t.Fatal("QuoteLocations returned aliased slice")
	}
}

func TestPaperScaleCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale generation skipped in -short mode")
	}
	// SizeMultiplier 25 restores the paper's absolute sizes: a Small
	// database should land near the paper's 10 MB.
	cfg := Config{SizeMultiplier: 25}
	for _, class := range core.Classes {
		db, err := cfg.Generate(class, core.Small)
		if err != nil {
			t.Fatal(err)
		}
		mb := float64(db.Bytes()) / (1 << 20)
		if mb < 4 || mb > 25 {
			t.Errorf("%s at scale 25: %.1f MB, want roughly the paper's 10 MB", class, mb)
		}
	}
}

func TestHugeSizeGeneratesAtTinyBase(t *testing.T) {
	// Huge is 1000x Small; at a tiny base config it stays tractable and
	// must preserve the scaling contract (entry_num = base * 1000).
	cfg := Config{DictEntries: 2, Articles: 1, Items: 2, Orders: 2}
	db, err := cfg.Generate(core.TCSD, core.Huge)
	if err != nil {
		t.Fatal(err)
	}
	n, err := DictionaryEntryCount(db.Docs[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2000 {
		t.Fatalf("Huge entry count = %d, want 2000", n)
	}
}

// elem is an element as encoding/xml, a parser that shares no code with
// the one the engines run, reads it: its attributes, its child elements,
// its string value, and whether it holds non-blank text of its own.
type elem struct {
	name    string
	attrs   map[string]string
	kids    []*elem
	text    string
	hasText bool
}

// parseXML reads data's root element with encoding/xml.
func parseXML(t *testing.T, data []byte) *elem {
	t.Helper()
	d := xml.NewDecoder(bytes.NewReader(data))
	var root *elem
	var open []*elem
	for {
		tok, err := d.Token()
		if err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			e := &elem{name: tok.Name.Local, attrs: map[string]string{}}
			for _, a := range tok.Attr {
				e.attrs[a.Name.Local] = a.Value
			}
			if len(open) == 0 {
				root = e
			} else {
				p := open[len(open)-1]
				p.kids = append(p.kids, e)
			}
			open = append(open, e)
		case xml.EndElement:
			open = open[:len(open)-1]
		case xml.CharData:
			if len(open) > 0 {
				open[len(open)-1].hasText = open[len(open)-1].hasText || len(bytes.TrimSpace(tok)) > 0
			}
			for _, e := range open {
				e.text += string(tok)
			}
		}
	}
	return root
}

// child returns e's first child element named name, or nil.
func (e *elem) child(name string) *elem {
	if cs := e.children(name); len(cs) > 0 {
		return cs[0]
	}
	return nil
}

// children returns e's child elements named name; a nil e, an absent
// element, has none.
func (e *elem) children(name string) []*elem {
	if e == nil {
		return nil
	}
	var cs []*elem
	for _, k := range e.kids {
		if k.name == name {
			cs = append(cs, k)
		}
	}
	return cs
}

// mixed reports whether e holds non-blank text beside child elements.
func (e *elem) mixed() bool { return e.hasText && len(e.kids) > 0 }

// walk calls fn on e and every element under it, with its depth (e's is 1).
func (e *elem) walk(fn func(*elem, int)) { e.walkAt(fn, 1) }

func (e *elem) walkAt(fn func(*elem, int), depth int) {
	fn(e, depth)
	for _, k := range e.kids {
		k.walkAt(fn, depth+1)
	}
}
