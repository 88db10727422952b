package xmldom_test

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"testing"

	"xbench/internal/core"
	"xbench/internal/gen"
	"xbench/internal/xmldom"
)

// addTree adds the persistent-DOM encoding of doc to h, after checking
// what the encoding does not carry: Ord is the preorder position, from 0
// at the document node, and every child's Parent is the node holding it.
func addTree(t *testing.T, h hash.Hash, name string, doc *xmldom.Node) {
	t.Helper()
	ord := int32(0)
	doc.Walk(func(n *xmldom.Node) bool {
		if n.Ord != ord {
			t.Fatalf("%s: node %d in document order has Ord %d", name, ord, n.Ord)
		}
		for _, c := range n.Children {
			if c.Parent != n {
				t.Fatalf("%s: a child of node %d has another parent", name, ord)
			}
		}
		ord++
		return true
	})
	if doc.Parent != nil {
		t.Fatalf("%s: the document node has a parent", name)
	}
	h.Write([]byte(name))
	h.Write(xmldom.EncodeBinary(doc))
}

// edgeDocs are inputs that take the parser's less travelled paths.
var edgeDocs = []string{
	`<a> <b>x</b> </a>`,        // whitespace-only runs are dropped
	"<a>\u00a0<b/>\u2003</a>",  // so are non-ASCII spaces
	"<a>&#160;<b/>&#32;</a>",   // and spaces that come from references
	"<a>\xff <b/></a>",         // an invalid byte is not a space
	`<a>x<![CDATA[<y>]]>z</a>`, // one run across a CDATA section
	`<a><![CDATA[ ]]><b/></a>`, // a blank CDATA run is dropped
	`<a>x<!--c-->y<?p d ?>z</a>`,
	`<a>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;&#X43;&#1114112;&#xD800;&#99999999;</a>`,
	`<a x='1' y="&amp;'" z='"&#10;'><b   c = "d" /></a>`,
	"<a>line\r\nbreak\t</a>",
	`<!-- lead --><?xml version="1.0"?><?keep me?><a/><!-- tail -->`,
	`<!DOCTYPE a [<!ELEMENT a (#PCDATA)> <!ATTLIST a x CDATA "1">]><a>t</a>`,
	`<a><a><a>deep</a></a><a/></a>`,
	`<r><x:y.z-1 _a="1" x:b="2">é</x:y.z-1 ></r>`,
	`<a></a>`,
	`<a>&amp;<![CDATA[x]]> </a>`,
	`<a>mixed <i>in</i> and <b>bold</b> text</a>`,
}

// TestParsedTreesPinned pins the trees Parse builds: for every Small
// document of the four classes at generator seed 7, and for a set of
// inputs that take the parser's less travelled paths, the persistent-DOM
// encoding of the parsed tree (names, attributes, text runs, comments and
// PIs, in order), with Ord and Parent checked beside it.
func TestParsedTreesPinned(t *testing.T) {
	for _, tc := range []struct {
		class core.Class
		want  string
	}{
		{core.DCMD, "a7a58d90d0ff2b7692a80217f69612914f254f77179cd653e812572b0ee78a93"},
		{core.TCMD, "f98f1b1c6265ee5df5816d1fd817410095ea8effaeeecf277a56c848867bc6de"},
		{core.DCSD, "43f3bade9f44f9555a5c997f09959f079ed632f8270ce404eb3927abc5f36112"},
		{core.TCSD, "b3c908673bb071648f12e6467c91fbe48ade80aa1527c834f2a0617ea2d045b8"},
	} {
		t.Run(tc.class.Code(), func(t *testing.T) {
			db, err := gen.Config{Seed: 7}.Generate(tc.class, core.Small)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, d := range db.Docs {
				doc, err := xmldom.Parse(d.Data)
				if err != nil {
					t.Fatalf("%s: %v", d.Name, err)
				}
				addTree(t, h, d.Name, doc)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("tree digest = %s, pinned %s", got, tc.want)
			}
		})
	}
	t.Run("edges", func(t *testing.T) {
		h := sha256.New()
		for _, src := range edgeDocs {
			doc, err := xmldom.Parse([]byte(src))
			if err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			addTree(t, h, src, doc)
		}
		if got, want := hex.EncodeToString(h.Sum(nil)), "50b1fbb16e89fc965a18cd4fba2a1e1dbde39eeb1b7775edfc28a22e9b828381"; got != want {
			t.Errorf("tree digest = %s, pinned %s", got, want)
		}
	})
}

// syntaxErrors are malformed inputs, each with where and why Parse
// refuses it.
var syntaxErrors = []struct {
	src    string
	offset int
	msg    string
}{
	{``, 0, `document has no root element`},
	{`text only`, 0, `unexpected content 't' outside root element`},
	{`<a/>junk`, 4, `unexpected content 'j' outside root element`},
	{`<a/><b/>`, 4, `multiple root elements`},
	{`</a>`, 1, `expected name`},
	{`<1a/>`, 1, `expected name`},
	{`<a`, 2, `unterminated start tag <a`},
	{`<a b></a>`, 4, `expected "="`},
	{`<a x=1></a>`, 5, `attribute value must be quoted`},
	{`<a x="1></a>`, 8, `'<' in attribute value`},
	{`<a x="1`, 7, `unterminated attribute value`},
	{`<a t="<"></a>`, 6, `'<' in attribute value`},
	{`<a t="x&bogus;"/>`, 14, `unknown entity &bogus;`},
	{`<a x="1" x="2"></a>`, 14, `duplicate attribute "x" on <a>`},
	{`<a x="1" y="2" x="&amp;"/>`, 24, `duplicate attribute "x" on <a>`},
	{`<a/ >`, 3, `expected ">"`},
	{`<a>`, 3, `unterminated element <a>`},
	{`<a>text`, 7, `unterminated element <a>`},
	{`<a></b>`, 6, `mismatched end tag </b> for <a>`},
	{`<abc></ab>`, 9, `mismatched end tag </ab> for <abc>`},
	{`<ab></abc>`, 9, `mismatched end tag </abc> for <ab>`},
	{`<a><b></a></b>`, 9, `mismatched end tag </a> for <b>`},
	{`<a></a  x>`, 8, `expected ">"`},
	{`<a></>`, 5, `expected name`},
	{`<a>&unknown;</a>`, 12, `unknown entity &unknown;`},
	{`<a>&#xZZ;</a>`, 9, `bad character reference &#xZZ;`},
	{`<a>&#;</a>`, 6, `bad character reference &#;`},
	{`<a>&amp</a>`, 3, `unterminated entity reference`},
	{`<a>&averyverylongname;</a>`, 3, `unterminated entity reference`},
	{`<a><![CDATA[raw</a>`, 12, `unterminated CDATA section`},
	{`<a><!-- unclosed </a>`, 7, `unterminated comment`},
	{`<!-- c`, 4, `unterminated comment`},
	{`<a><?pi x</a>`, 7, `unterminated processing instruction`},
	{`<?pi x`, 4, `unterminated processing instruction`},
	{`<??>`, 2, `expected name`},
	{`<!DOCTYPE a [`, 13, `unterminated DOCTYPE`},
}

// TestSyntaxErrorsPinned pins where and why Parse refuses malformed
// input: the offset and the message of each SyntaxError.
func TestSyntaxErrorsPinned(t *testing.T) {
	for _, tc := range syntaxErrors {
		_, err := xmldom.Parse([]byte(tc.src))
		se, ok := err.(*xmldom.SyntaxError)
		if !ok {
			t.Errorf("%q: error %v (%T), want a SyntaxError", tc.src, err, err)
			continue
		}
		if se.Offset != tc.offset || se.Msg != tc.msg {
			t.Errorf("{%q, %d, %q}, pinned offset %d, %q", tc.src, se.Offset, se.Msg, tc.offset, tc.msg)
		}
	}
}
