package xmldom

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

// mustRecord parses src into a record of its own.
func mustRecord(t testing.TB, src string) *Record {
	t.Helper()
	rec := new(Record)
	if err := ParseRecord(rec, []byte(src)); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestBinaryRoundTrip(t *testing.T) {
	cases := []string{
		`<a/>`,
		`<a x="1" y="two"><b>text</b><c/><b>more</b></a>`,
		`<qt>mixed <i>inline</i> tail</qt>`,
		`<?xml version="1.0"?><!-- c --><root><?pi data?><x>&amp;&lt;</x></root>`,
		`<deep><a><b><c><d><e>bottom</e></d></c></b></a></deep>`,
	}
	for _, src := range cases {
		rec := mustRecord(t, src)
		dec, err := DecodeBinary(rec.Bytes())
		if err != nil {
			t.Fatalf("%q: decode: %v", src, err)
		}
		if got, want := string(dec.XMLBytes()), rec.Root().XML(); got != want {
			t.Fatalf("%q: the decoded tree is\n%s\nthe record\n%s", src, got, want)
		}
		if again := mustRecord(t, string(dec.XMLBytes())); !bytes.Equal(again.Bytes(), rec.Bytes()) {
			t.Fatalf("%q: round trip changed the record", src)
		}
	}
}

func TestBinaryPreservesDocumentOrder(t *testing.T) {
	dec, err := DecodeBinary(mustRecord(t, `<a><b><c/></b><d/><e><f/></e></a>`).Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var ords []int32
	var walk func(*DecodedNode)
	walk = func(n *DecodedNode) {
		ords = append(ords, n.Ord)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(dec)
	for i := 1; i < len(ords); i++ {
		if ords[i] <= ords[i-1] {
			t.Fatalf("document order not increasing after decode: %v", ords)
		}
	}
	// Parent pointers must be restored too.
	f := dec.Children[0].Children[2].Children[0]
	if f.Name != "f" || f.Parent == nil || f.Parent.Name != "e" {
		t.Fatal("parent pointers not restored")
	}
}

func TestBinaryPropertyViaXML(t *testing.T) {
	// For any two short text fragments, a record the Writer builds
	// serializes as the reference decoder's tree of its bytes does.
	f := func(a, b string) bool {
		w := NewWriter()
		w.Begin("r")
		w.Attr("k", []byte(a))
		w.Begin("c")
		w.Text([]byte(b))
		w.End()
		w.End()
		rec, err := w.Record()
		if err != nil {
			return false
		}
		dec, err := DecodeBinary(rec.Bytes())
		if err != nil {
			return false
		}
		return bytes.Equal(dec.XMLBytes(), []byte(rec.Root().XML()))
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
		if _, err := OpenRecord(data); err == nil {
			t.Errorf("case %d: garbage opened successfully", i)
		}
	}
}

func TestBinaryTrailingBytesRejected(t *testing.T) {
	enc := bytes.Clone(mustRecord(t, `<a/>`).Bytes())
	if _, err := DecodeBinary(append(enc, 0x00)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := OpenRecord(append(enc, 0x00)); err == nil {
		t.Fatal("trailing bytes opened")
	}
}

func TestBinarySmallerAndFasterShape(t *testing.T) {
	// Name dictionary encoding should make repetitive documents compact:
	// binary must not exceed ~1.5x the XML size even in the worst case and
	// should be smaller for tag-heavy content.
	var b strings.Builder
	b.WriteString("<orders>")
	for i := 0; i < 200; i++ {
		b.WriteString("<order_line_with_long_name><item_identifier_column>I1</item_identifier_column>" +
			"<quantity_column>3</quantity_column></order_line_with_long_name>")
	}
	b.WriteString("</orders>")
	if enc := mustRecord(t, b.String()).Bytes(); len(enc) >= b.Len() {
		t.Fatalf("binary (%d) not smaller than XML (%d) for tag-heavy doc", len(enc), b.Len())
	}
}
