package xmldom

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSimple(t *testing.T) {
	root := mustRecord(t, `<?xml version="1.0"?><a x="1"><b>hi</b><c/></a>`).Element()
	if root.IsZero() || string(root.Name()) != "a" {
		t.Fatalf("root = %q", root.Name())
	}
	if v, ok := root.Attr("x"); !ok || string(v) != "1" {
		t.Fatalf("attr x = %q, %v", v, ok)
	}
	if n := root.End() - root.Ord() - 1; n != 3 {
		t.Fatalf("descendants = %d", n)
	}
	if got := root.Child("b").Text(); string(got) != "hi" {
		t.Fatalf("b text = %q", got)
	}
	if root.Child("c").IsZero() {
		t.Fatal("self-closing c missing")
	}
}

func TestParseEntities(t *testing.T) {
	root := mustRecord(t, `<a t="&quot;q&quot;">&lt;&amp;&gt; &#65;&#x42;</a>`).Element()
	if got := root.Text(); string(got) != "<&> AB" {
		t.Fatalf("text = %q", got)
	}
	if v, _ := root.Attr("t"); string(v) != `"q"` {
		t.Fatalf("attr = %q", v)
	}
}

func TestParseCDATAAndComments(t *testing.T) {
	root := mustRecord(t, `<a><!-- note --><![CDATA[<raw> & stuff]]></a>`).Element()
	if got := root.Text(); string(got) != "<raw> & stuff" {
		t.Fatalf("CDATA text = %q", got)
	}
	c, _ := root.FirstChild()
	if c.Kind() != CommentKind || !bytes.Contains(c.Data(), []byte("note")) {
		t.Fatal("comment lost")
	}
}

func TestParseDoctypeAndPI(t *testing.T) {
	rec := mustRecord(t, `<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><?target data?><a>x</a>`)
	if string(rec.Element().Text()) != "x" {
		t.Fatal("doctype skipping broke content")
	}
	pi, _ := rec.Root().FirstChild()
	if pi.Kind() != PIKind || string(pi.Name()) != "target" || string(pi.Data()) != "data" {
		t.Fatal("processing instruction lost")
	}
}

func TestParseMixedContent(t *testing.T) {
	root := mustRecord(t, `<qt>before <i>italic</i> after</qt>`).Element()
	if !root.HasMixedContent() {
		t.Fatal("mixed content not detected")
	}
	if got := root.Text(); string(got) != "before italic after" {
		t.Fatalf("mixed text = %q", got)
	}
	for _, src := range []string{`<a><b>x</b></a>`, `<a>x</a>`, "<a>\u00a0<b/></a>"} {
		if mustRecord(t, src).Element().HasMixedContent() {
			t.Fatalf("%s flagged as mixed", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,                      // empty
		`<a>`,                   // unterminated
		`<a></b>`,               // mismatched tags
		`<a x=1></a>`,           // unquoted attribute
		`<a x="1" x="2"></a>`,   // duplicate attribute
		`<a>&unknown;</a>`,      // undefined entity
		`<a><b></a></b>`,        // interleaved
		`<a/><b/>`,              // two roots
		`<a t="<"></a>`,         // < in attribute
		`<a><!-- unclosed </a>`, // unterminated comment
		`text only`,             // no root element
	}
	var rec Record
	for _, src := range cases {
		if err := ParseRecord(&rec, []byte(src)); err == nil {
			t.Errorf("ParseRecord(%q) succeeded, want error", src)
		}
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	err := ParseRecord(new(Record), []byte(`<a></b>`))
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Offset == 0 || !strings.Contains(se.Error(), "mismatched") {
		t.Fatalf("unhelpful error: %v", se)
	}
}

func TestDocumentOrder(t *testing.T) {
	rec := mustRecord(t, `<a><b><c/></b><d/></a>`)
	var names []string
	for o := int32(0); o < int32(rec.Len()); o++ {
		if x := rec.At(o); x.Kind() == ElementKind {
			names = append(names, string(x.Name()))
		}
	}
	if strings.Join(names, "") != "abcd" {
		t.Fatalf("document order = %v", names)
	}
}

func TestRoundTrip(t *testing.T) {
	src := `<catalog><item id="I1"><title>a &amp; b</title><attributes><srp>3.50</srp></attributes></item></catalog>`
	rec := mustRecord(t, src)
	out := rec.Root().XML()
	if rec2 := mustRecord(t, out); !bytes.Equal(rec.Bytes(), rec2.Bytes()) {
		t.Fatalf("round trip changed document:\n%s\n%s", out, rec2.Root().XML())
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Any text content must survive serialize-parse unchanged.
	f := func(s string) bool {
		if !validUTF8Text(s) {
			return true // XML cannot carry arbitrary control bytes
		}
		w := NewWriter()
		w.Begin("t")
		w.Text([]byte(s))
		w.End()
		built, err := w.Record()
		if err != nil {
			return false
		}
		var rec Record
		if err := ParseRecord(&rec, []byte(built.Root().XML())); err != nil {
			return false
		}
		return string(rec.Element().Text()) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func validUTF8Text(s string) bool {
	if strings.TrimSpace(s) == "" && s != "" {
		return false // a blank run is dropped
	}
	for _, r := range s {
		if r == 0xFFFD || r < 0x20 && r != '\t' && r != '\n' && r != '\r' {
			return false
		}
		if r == '\r' { // parser does not normalize line endings
			return false
		}
	}
	return true
}

func TestAttrEscaping(t *testing.T) {
	w := NewWriter()
	w.Begin("a")
	w.Attr("v", []byte(`x"y<z&`))
	w.End()
	built, err := w.Record()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := mustRecord(t, built.Root().XML()).Element().Attr("v"); string(got) != `x"y<z&` {
		t.Fatalf("attr round trip = %q", got)
	}
}

func TestNodeHelpers(t *testing.T) {
	root := mustRecord(t, `<a><b>1</b><c>2</c><b>3</b></a>`).Element()
	var bs []string
	for b := root.Child("b"); !b.IsZero(); b = b.Sibling("b") {
		bs = append(bs, string(b.Text()))
	}
	if strings.Join(bs, ",") != "1,3" {
		t.Fatalf("b children = %v", bs)
	}
	if string(root.Text()) != "123" {
		t.Fatalf("Text = %q", root.Text())
	}
}

func TestEncoder(t *testing.T) {
	e := NewEncoder()
	e.Begin("order", "id", "O1")
	e.Leaf("total", "9.99")
	e.Leaf("note", "")
	e.Empty("flag", "set", "yes")
	e.End()
	b, err := e.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	root := mustRecord(t, string(b)).Element()
	if string(root.Name()) != "order" {
		t.Fatalf("root = %s", root.Name())
	}
	if v, _ := root.Attr("id"); string(v) != "O1" {
		t.Fatal("attr lost")
	}
	if string(root.Child("total").Text()) != "9.99" {
		t.Fatal("leaf text lost")
	}
	if v, _ := root.Child("flag").Attr("set"); string(v) != "yes" {
		t.Fatal("empty element attr lost")
	}
}

func TestEncoderErrors(t *testing.T) {
	e := NewEncoder()
	e.Begin("a")
	if _, err := e.Bytes(); err == nil {
		t.Fatal("unclosed element not reported")
	}
	e2 := NewEncoder()
	e2.End()
	if _, err := e2.Bytes(); err == nil {
		t.Fatal("stray End not reported")
	}
	e3 := NewEncoder()
	e3.Begin("a", "odd")
	if _, err := e3.Bytes(); err == nil {
		t.Fatal("odd attribute list not reported")
	}
}

func TestEncoderEscapes(t *testing.T) {
	e := NewEncoder()
	e.Begin("a", "t", `q"<&`)
	e.Text(`body <&> text`)
	e.End()
	b, err := e.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	root := mustRecord(t, string(b)).Element()
	if got := root.Text(); string(got) != `body <&> text` {
		t.Fatalf("text = %q", got)
	}
	if v, _ := root.Attr("t"); string(v) != `q"<&` {
		t.Fatalf("attr = %q", v)
	}
}

func TestWalkPrune(t *testing.T) {
	// A walk in document order skips a subtree by going on at its End.
	rec := mustRecord(t, `<a><skip><x/></skip><keep/></a>`)
	var visited []string
	for o := int32(0); o < int32(rec.Len()); {
		x := rec.At(o)
		if o++; x.Kind() != ElementKind {
			continue
		}
		visited = append(visited, string(x.Name()))
		if string(x.Name()) == "skip" {
			o = x.End()
		}
	}
	if strings.Join(visited, ",") != "a,skip,keep" {
		t.Fatalf("visited %v", visited)
	}
}
