package xmldom

import (
	"testing"
	"testing/quick"
)

func TestBinaryRoundTrip(t *testing.T) {
	cases := []string{
		`<a/>`,
		`<a x="1" y="two"><b>text</b><c/><b>more</b></a>`,
		`<qt>mixed <i>inline</i> tail</qt>`,
		`<?xml version="1.0"?><!-- c --><root><?pi data?><x>&amp;&lt;</x></root>`,
		`<deep><a><b><c><d><e>bottom</e></d></c></b></a></deep>`,
	}
	for _, src := range cases {
		doc := MustParse(src)
		enc := EncodeBinary(doc)
		dec, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("%q: decode: %v", src, err)
		}
		if !Equal(doc, dec) {
			t.Fatalf("%q: round trip changed tree:\n%s\nvs\n%s", src, doc.XML(), dec.XML())
		}
	}
}

func TestBinaryPreservesDocumentOrder(t *testing.T) {
	doc := MustParse(`<a><b><c/></b><d/><e><f/></e></a>`)
	dec, err := DecodeBinary(EncodeBinary(doc))
	if err != nil {
		t.Fatal(err)
	}
	var ords []int32
	dec.Walk(func(n *Node) bool {
		ords = append(ords, n.Ord)
		return true
	})
	for i := 1; i < len(ords); i++ {
		if ords[i] <= ords[i-1] {
			t.Fatalf("document order not increasing after decode: %v", ords)
		}
	}
	// Parent pointers must be restored too.
	f := dec.Root().FirstChild("e").FirstChild("f")
	if f.Parent == nil || f.Parent.Name != "e" {
		t.Fatal("parent pointers not restored")
	}
}

func TestBinaryPropertyViaXML(t *testing.T) {
	// For any two short text fragments, building a tree, binary round
	// tripping and serializing must equal the direct serialization.
	f := func(a, b string) bool {
		n := NewElement("r")
		n.SetAttr("k", a)
		n.AddElement("c").AddText(b)
		dec, err := DecodeBinary(EncodeBinary(n))
		if err != nil {
			return false
		}
		return dec.XML() == n.XML()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("tooshort"),
		[]byte("XDM1"),                    // truncated after magic
		[]byte("XDM1\x01\x02ab\x00"),      // element references missing data
		append([]byte("XDM1\x00"), 0xFF),  // unknown kind
		[]byte("not-xdm-anything-at-all"), // wrong magic
	}
	for i, data := range cases {
		if _, err := DecodeBinary(data); err == nil {
			t.Errorf("case %d: garbage decoded successfully", i)
		}
	}
}

func TestBinaryTrailingBytesRejected(t *testing.T) {
	enc := EncodeBinary(MustParse(`<a/>`))
	if _, err := DecodeBinary(append(enc, 0x00)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestBinarySmallerAndFasterShape(t *testing.T) {
	// Name dictionary encoding should make repetitive documents compact:
	// binary must not exceed ~1.5x the XML size even in the worst case and
	// should be smaller for tag-heavy content.
	var b []byte
	doc := &Node{Kind: DocumentKind}
	root := doc.AddElement("orders")
	for i := 0; i < 200; i++ {
		o := root.AddElement("order_line_with_long_name")
		o.AddElement("item_identifier_column").AddText("I1")
		o.AddElement("quantity_column").AddText("3")
	}
	xml := doc.XML()
	b = EncodeBinary(doc)
	if len(b) >= len(xml) {
		t.Fatalf("binary (%d) not smaller than XML (%d) for tag-heavy doc", len(b), len(xml))
	}
}

func BenchmarkParseXML(b *testing.B) {
	doc := buildBenchDoc()
	data := doc.XMLBytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBinaryDOM(b *testing.B) {
	doc := buildBenchDoc()
	data := EncodeBinary(doc)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpenRecord(b *testing.B) {
	data := EncodeBinary(buildBenchDoc())
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OpenRecord(data); err != nil {
			b.Fatal(err)
		}
	}
}

func buildBenchDoc() *Node {
	doc := &Node{Kind: DocumentKind}
	root := doc.AddElement("catalog")
	for i := 0; i < 500; i++ {
		item := root.AddElement("item")
		item.SetAttr("id", "I1")
		item.AddElement("title").AddText("Some Book Title With Words")
		item.AddElement("description").AddText("a moderately long description of the item with many words in it")
		a := item.AddElement("authors").AddElement("author")
		a.AddElement("name").AddText("Ada Adams")
		a.AddElement("country").AddText("Canada")
	}
	doc.Renumber()
	return doc
}
