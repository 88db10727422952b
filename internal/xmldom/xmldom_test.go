package xmldom

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSimple(t *testing.T) {
	doc := MustParse(`<?xml version="1.0"?><a x="1"><b>hi</b><c/></a>`)
	root := doc.Root()
	if root == nil || root.Name != "a" {
		t.Fatalf("root = %v", root)
	}
	if v, ok := root.Attr("x"); !ok || v != "1" {
		t.Fatalf("attr x = %q, %v", v, ok)
	}
	if len(root.Children) != 2 {
		t.Fatalf("children = %d", len(root.Children))
	}
	if root.FirstChild("b").Text() != "hi" {
		t.Fatalf("b text = %q", root.FirstChild("b").Text())
	}
	if root.FirstChild("c") == nil {
		t.Fatal("self-closing c missing")
	}
}

func TestParseEntities(t *testing.T) {
	doc := MustParse(`<a t="&quot;q&quot;">&lt;&amp;&gt; &#65;&#x42;</a>`)
	root := doc.Root()
	if got := root.Text(); got != "<&> AB" {
		t.Fatalf("text = %q", got)
	}
	if v, _ := root.Attr("t"); v != `"q"` {
		t.Fatalf("attr = %q", v)
	}
}

func TestParseCDATAAndComments(t *testing.T) {
	doc := MustParse(`<a><!-- note --><![CDATA[<raw> & stuff]]></a>`)
	root := doc.Root()
	if got := root.Text(); got != "<raw> & stuff" {
		t.Fatalf("CDATA text = %q", got)
	}
	hasComment := false
	for _, c := range root.Children {
		if c.Kind == CommentKind && strings.Contains(c.Data, "note") {
			hasComment = true
		}
	}
	if !hasComment {
		t.Fatal("comment lost")
	}
}

func TestParseDoctypeAndPI(t *testing.T) {
	doc := MustParse(`<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><?target data?><a>x</a>`)
	if doc.Root().Text() != "x" {
		t.Fatal("doctype skipping broke content")
	}
	foundPI := false
	for _, c := range doc.Children {
		if c.Kind == PIKind && c.Name == "target" {
			foundPI = true
		}
	}
	if !foundPI {
		t.Fatal("processing instruction lost")
	}
}

func TestParseMixedContent(t *testing.T) {
	doc := MustParse(`<qt>before <i>italic</i> after</qt>`)
	root := doc.Root()
	if !root.HasMixedContent() {
		t.Fatal("mixed content not detected")
	}
	if root.Text() != "before italic after" {
		t.Fatalf("mixed text = %q", root.Text())
	}
	plain := MustParse(`<a><b>x</b></a>`).Root()
	if plain.HasMixedContent() {
		t.Fatal("element-only content flagged as mixed")
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
	for _, src := range cases {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Parse([]byte(`<a></b>`))
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Offset == 0 || !strings.Contains(se.Error(), "mismatched") {
		t.Fatalf("unhelpful error: %v", se)
	}
}

func TestDocumentOrder(t *testing.T) {
	doc := MustParse(`<a><b><c/></b><d/></a>`)
	var names []string
	var ords []int32
	doc.Walk(func(n *Node) bool {
		if n.Kind == ElementKind {
			names = append(names, n.Name)
			ords = append(ords, n.Ord)
		}
		return true
	})
	if strings.Join(names, "") != "abcd" {
		t.Fatalf("walk order = %v", names)
	}
	for i := 1; i < len(ords); i++ {
		if ords[i] <= ords[i-1] {
			t.Fatalf("document order not increasing: %v", ords)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	src := `<catalog><item id="I1"><title>a &amp; b</title><attributes><srp>3.50</srp></attributes></item></catalog>`
	doc := MustParse(src)
	out := doc.XML()
	doc2 := MustParse(out)
	if !Equal(doc, doc2) {
		t.Fatalf("round trip changed document:\n%s\n%s", out, doc2.XML())
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Any text content must survive serialize-parse unchanged.
	f := func(s string) bool {
		if !validUTF8Text(s) {
			return true // XML cannot carry arbitrary control bytes
		}
		n := NewElement("t")
		n.AddText(s)
		doc, err := Parse([]byte(n.XML()))
		if err != nil {
			return false
		}
		return doc.Root().Text() == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func validUTF8Text(s string) bool {
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
	n := NewElement("a")
	n.SetAttr("v", `x"y<z&`)
	doc := MustParse(n.XML())
	if got, _ := doc.Root().Attr("v"); got != `x"y<z&` {
		t.Fatalf("attr round trip = %q", got)
	}
}

func TestNodeHelpers(t *testing.T) {
	doc := MustParse(`<a><b>1</b><c>2</c><b>3</b></a>`)
	root := doc.Root()
	bs := root.ChildElements("b")
	if len(bs) != 2 || bs[0].Text() != "1" || bs[1].Text() != "3" {
		t.Fatalf("ChildElements = %v", bs)
	}
	if root.Text() != "123" {
		t.Fatalf("Text = %q", root.Text())
	}
	if n := root.CountNodes(); n != 7 { // a,b,1,c,2,b,3
		t.Fatalf("CountNodes = %d", n)
	}
}

func TestDescendants(t *testing.T) {
	doc := MustParse(`<a><s><s><p>x</p></s><p>y</p></s></a>`)
	ps := doc.Root().Descendants("p")
	if len(ps) != 2 || ps[0].Text() != "x" || ps[1].Text() != "y" {
		t.Fatalf("Descendants(p) wrong: %d", len(ps))
	}
	all := doc.Root().Descendants("")
	if len(all) != 4 { // s, s, p, p
		t.Fatalf("Descendants(\"\") = %d", len(all))
	}
}

func TestCloneIsDeep(t *testing.T) {
	doc := MustParse(`<a x="1"><b>t</b></a>`)
	c := doc.Root().Clone()
	c.FirstChild("b").Children[0].Data = "changed"
	c.SetAttr("x", "2")
	if doc.Root().FirstChild("b").Text() != "t" {
		t.Fatal("clone shares text nodes")
	}
	if v, _ := doc.Root().Attr("x"); v != "1" {
		t.Fatal("clone shares attrs")
	}
	if c.Parent != nil {
		t.Fatal("clone kept parent")
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
	doc, err := Parse(b)
	if err != nil {
		t.Fatalf("encoder output unparseable: %v\n%s", err, b)
	}
	root := doc.Root()
	if root.Name != "order" {
		t.Fatalf("root = %s", root.Name)
	}
	if v, _ := root.Attr("id"); v != "O1" {
		t.Fatal("attr lost")
	}
	if root.FirstChild("total").Text() != "9.99" {
		t.Fatal("leaf text lost")
	}
	if v, _ := root.FirstChild("flag").Attr("set"); v != "yes" {
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
	doc, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Root().Text(); got != `body <&> text` {
		t.Fatalf("text = %q", got)
	}
	if v, _ := doc.Root().Attr("t"); v != `q"<&` {
		t.Fatalf("attr = %q", v)
	}
}

func TestSortByOrd(t *testing.T) {
	doc := MustParse(`<a><b/><c/><d/></a>`)
	els := doc.Root().Children
	shuffled := []*Node{els[2], els[0], els[1]}
	SortByOrd(shuffled)
	if shuffled[0].Name != "b" || shuffled[2].Name != "d" {
		t.Fatalf("SortByOrd wrong: %s %s %s", shuffled[0].Name, shuffled[1].Name, shuffled[2].Name)
	}
}

func TestWalkPrune(t *testing.T) {
	doc := MustParse(`<a><skip><x/></skip><keep/></a>`)
	var visited []string
	doc.Walk(func(n *Node) bool {
		if n.Kind != ElementKind {
			return true
		}
		visited = append(visited, n.Name)
		return n.Name != "skip"
	})
	for _, v := range visited {
		if v == "x" {
			t.Fatal("prune did not stop descent")
		}
	}
}
