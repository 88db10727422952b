package xmldom

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzParse checks that the parser never panics, that any document it
// accepts survives a serialize-reparse round trip (the invariant the
// storage engines rely on), and that ParseRecord and RootName agree with
// it (CheckParseRecord).
func FuzzParse(f *testing.F) {
	seeds := []string{
		`<a/>`,
		`<a x="1"><b>t</b><!-- c --><![CDATA[raw]]></a>`,
		`<?xml version="1.0"?><r>&amp;&#65;</r>`,
		`<a><a><a/></a></a>`,
		`<qt>mix <i>in</i> ed</qt>`,
		`<a x='s'/>`,
		`<!DOCTYPE a [<!ELEMENT a ANY>]><a/>`,
		`<a`, `</a>`, `<a>&bogus;</a>`, `<<>>`, "",
		`<!-- <order> --><?p <order?><!DOCTYPE x [<!ENTITY o "<order">]><item/>`,
		`<a x="&lt;" y="&amp;" x="&gt;"/>`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		CheckParseRecord(t, data)
		doc, err := Parse(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		out := doc.XMLBytes()
		doc2, err := Parse(out)
		if err != nil {
			t.Fatalf("accepted document failed reparse: %v\ninput: %q\nserialized: %q", err, data, out)
		}
		if !Equal(doc, doc2) {
			t.Fatalf("round trip changed tree for %q", data)
		}
		if !bytes.Equal(out, doc2.XMLBytes()) {
			t.Fatalf("serialization not a fixpoint for %q", data)
		}
	})
}

// CheckParseRecord holds ParseRecord and RootName to Parse on data.
// ParseRecord, into a Record that held another document, fails where
// Parse fails with the same error and leaves the record empty; otherwise
// its bytes are EncodeBinary of Parse's tree and its node table is
// OpenRecord's of those bytes. Where Parse succeeds, RootName names the
// tree's root element.
func CheckParseRecord(t testing.TB, data []byte) {
	t.Helper()
	doc, perr := Parse(data)
	var rec Record
	if err := ParseRecord(&rec, []byte(`<prev a="1"><b>&amp;</b><?pi x?></prev>`)); err != nil {
		t.Fatal(err)
	}
	rerr := ParseRecord(&rec, data)
	if perr != nil || rerr != nil {
		if perr == nil || rerr == nil || perr.Error() != rerr.Error() {
			t.Fatalf("%q: Parse error %v, ParseRecord error %v", data, perr, rerr)
		}
		if rec.Len() != 0 || len(rec.data) != 0 {
			t.Fatalf("%q: a failed ParseRecord left %d nodes", data, rec.Len())
		}
		return
	}
	if want := EncodeBinary(doc); !bytes.Equal(rec.data, want) {
		t.Fatalf("%q: ParseRecord wrote\n%q\nEncodeBinary of the tree is\n%q", data, rec.data, want)
	}
	opened, err := OpenRecord(bytes.Clone(rec.data))
	switch {
	case err != nil && !strings.Contains(err.Error(), "nesting too deep"):
		t.Fatalf("%q: the record does not open: %v", data, err)
	case err == nil && (!slices.Equal(opened.names, rec.names) || !slices.Equal(opened.nodes, rec.nodes)):
		t.Fatalf("%q: node table %v, names %v; OpenRecord's %v, %v", data, rec.nodes, rec.names, opened.nodes, opened.names)
	}
	if name, ok := RootName(data); !ok || string(name) != doc.Root().Name {
		t.Fatalf("%q: RootName = %q, %v; the tree's root is %q", data, name, ok, doc.Root().Name)
	}
}
