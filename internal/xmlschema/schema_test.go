package xmlschema

import (
	"strings"
	"testing"

	"xbench/internal/core"
	"xbench/internal/xmldom"
)

func TestForAllClasses(t *testing.T) {
	for _, c := range core.Classes {
		s := For(c)
		if s == nil || s.Class != c {
			t.Fatalf("For(%s) = %+v", c, s)
		}
		if s.Root == nil || s.DocName == "" {
			t.Fatalf("schema for %s incomplete", c)
		}
	}
}

func TestDTDMentionsKeyElements(t *testing.T) {
	cases := map[core.Class][]string{
		core.TCSD: {"dictionary", "entry", "hw", "qt", "#PCDATA |"}, // mixed qt
		core.TCMD: {"article", "sec", "contact", "sec*"},            // recursion
		core.DCSD: {"catalog", "item", "FAX_number?", "id ID #REQUIRED"},
		core.DCMD: {"order", "order_line", "cc_xacts", "customer"},
	}
	for c, wants := range cases {
		dtd := For(c).DTD()
		for _, w := range wants {
			if !strings.Contains(dtd, w) {
				t.Errorf("%s DTD missing %q:\n%s", c, w, dtd)
			}
		}
	}
}

func TestDTDDeclaresEachElementOnce(t *testing.T) {
	for _, c := range core.Classes {
		dtd := For(c).DTD()
		for _, name := range For(c).ElementNames() {
			n := strings.Count(dtd, "<!ELEMENT "+name+" ")
			if n != 1 {
				t.Errorf("%s: element %q declared %d times", c, name, n)
			}
		}
	}
}

func TestDiagramShape(t *testing.T) {
	d := For(core.TCSD).Diagram()
	for _, w := range []string{"TC/SD", "dictionary", "entry+ (@id)", "qt (mixed)", "└──"} {
		if !strings.Contains(d, w) {
			t.Errorf("TC/SD diagram missing %q:\n%s", w, d)
		}
	}
	d = For(core.TCMD).Diagram()
	if !strings.Contains(d, "recursive") {
		t.Errorf("TC/MD diagram does not mark recursion:\n%s", d)
	}
	d = For(core.DCMD).Diagram()
	// DC/MD must also show the flat-translation documents.
	for _, w := range []string{"customers", "countries", "order_line+"} {
		if !strings.Contains(d, w) {
			t.Errorf("DC/MD diagram missing %q", w)
		}
	}
}

// record parses src into a record, as a load hands documents on.
func record(t *testing.T, src string) *xmldom.Record {
	t.Helper()
	rec := new(xmldom.Record)
	if err := xmldom.ParseRecord(rec, []byte(src)); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestValidateAcceptsConforming(t *testing.T) {
	doc := record(t, `<order id="O1">
		<customer_id>C1</customer_id><order_date>2001-01-01</order_date>
		<sub_total>1</sub_total><tax>0.1</tax><total>1.1</total>
		<ship_type>AIR</ship_type><ship_date>2001-01-02</ship_date>
		<ship_addr_id>A1</ship_addr_id><order_status>SHIPPED</order_status>
		<cc_xacts><cc_type>VISA</cc_type><cc_number>4111</cc_number>
		<cc_name>X</cc_name><cc_expiry>2003-01-01</cc_expiry>
		<cc_auth_id>7</cc_auth_id><total_amount>1.1</total_amount></cc_xacts>
		<order_lines><order_line><item_id>I1</item_id><qty>2</qty>
		<discount>0</discount></order_line></order_lines></order>`)
	if err := For(core.DCMD).Validate(doc); err != nil {
		t.Fatalf("conforming order rejected: %v", err)
	}
}

func TestValidateRejectsViolations(t *testing.T) {
	s := For(core.DCMD)
	bad := []string{
		`<bogus/>`,                           // unknown root
		`<order id="1"><nope/></order>`,      // undeclared child
		`<order id="1" color="red"></order>`, // undeclared attribute
	}
	for _, src := range bad {
		if err := s.Validate(record(t, src)); err == nil {
			t.Errorf("Validate accepted %q", src)
		}
	}
}

func TestValidateRecursiveSections(t *testing.T) {
	doc := record(t, `<article id="a1"><prolog><title>T</title>
		<authors><author><name>N</name></author></authors></prolog>
		<body><sec id="s1"><heading>Introduction</heading><p>x</p>
		<sec id="s2"><p>nested</p></sec></sec></body></article>`)
	if err := For(core.TCMD).Validate(doc); err != nil {
		t.Fatalf("recursive sec rejected: %v", err)
	}
}

func TestValidateMixedContent(t *testing.T) {
	// qt carries mixed content; the dictionary schema must allow it.
	doc := record(t, `<dictionary><entry id="e1"><hw>w</hw><pos>n</pos>
		<sense><def>d</def><qp><q><qd>1999-01-01</qd><a>A</a><loc>L</loc>
		<qt>text <i>em</i> more</qt></q></qp></sense></entry></dictionary>`)
	if err := For(core.TCSD).Validate(doc); err != nil {
		t.Fatalf("mixed qt rejected: %v", err)
	}
}

func TestElementNamesSortedUnique(t *testing.T) {
	names := For(core.DCSD).ElementNames()
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatalf("names not sorted/unique at %d: %v", i, names)
		}
	}
	found := false
	for _, n := range names {
		if n == "number_of_pages" {
			found = true
		}
	}
	if !found {
		t.Fatal("DC/SD missing number_of_pages (Q20 cast target)")
	}
}

func TestXSDStructuralMarkers(t *testing.T) {
	tc := For(core.TCMD).XSD()
	// Recursive sec becomes a named complex type referencing itself.
	if !strings.Contains(tc, `complexType name="secType"`) ||
		!strings.Contains(tc, `type="secType" minOccurs="0" maxOccurs="unbounded"`) {
		t.Errorf("TC/MD XSD does not express sec recursion:\n%s", tc)
	}
	td := For(core.TCSD).XSD()
	if !strings.Contains(td, `mixed="true"`) {
		t.Error("TC/SD XSD does not mark qt as mixed")
	}
	dc := For(core.DCSD).XSD()
	if !strings.Contains(dc, `type="xs:ID" use="required"`) {
		t.Error("DC/SD XSD does not require item ids")
	}
	if !strings.Contains(dc, `minOccurs="0"`) {
		t.Error("DC/SD XSD has no optional elements")
	}
}
