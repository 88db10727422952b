package xmldom_test

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"testing"

	"xbench/internal/xmldom"
)

// fuzzSeeds are the seed inputs of FuzzParse and FuzzEncodingXML, beside
// edgeDocs and syntaxErrors.
var fuzzSeeds = []string{
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
	`<x:a xmlns:x="u" x:b="1"><c:d/></x:a>`,
	"<a>\r\n&#13;\r</a>",
	`<a b="&apos;&quot;&lt;&amp;&#x9;" c='"'>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;&#xD800;<?p  d e ?></a>`,
}

func addSeeds(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	for _, s := range edgeDocs {
		f.Add([]byte(s))
	}
	for _, tc := range syntaxErrors {
		f.Add([]byte(tc.src))
	}
}

// FuzzParse checks that ParseRecord never panics and holds to itself
// (checkRecord): a failed parse empties the record, an accepted document
// gets OpenRecord's node table, survives a serialize-reparse round trip
// (the invariant the storage engines rely on), and RootName names its
// root element.
func FuzzParse(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) { checkRecord(t, data) })
}

// FuzzEncodingXML holds ParseRecord to encoding/xml, a parser that shares
// no code with it (checkEncodingXML).
func FuzzEncodingXML(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) { checkEncodingXML(t, data, false) })
}

// checkRecord parses data into a record that held another document.
// Where ParseRecord fails the record is left empty. Otherwise the node
// table it wrote is the one OpenRecord makes of its bytes, the record
// serialized parses back to the same bytes, and RootName names its root
// element.
func checkRecord(t testing.TB, data []byte) {
	t.Helper()
	var rec xmldom.Record
	if err := xmldom.ParseRecord(&rec, []byte(`<prev a="1"><b>&amp;</b><?pi x?></prev>`)); err != nil {
		t.Fatal(err)
	}
	if err := xmldom.ParseRecord(&rec, data); err != nil {
		if _, ok := err.(*xmldom.SyntaxError); !ok {
			t.Fatalf("%q: error %v (%T), want a SyntaxError", data, err, err)
		}
		if rec.Len() != 0 || len(rec.Bytes()) != 0 {
			t.Fatalf("%q: a failed ParseRecord left %d nodes", data, rec.Len())
		}
		return
	}
	opened, err := xmldom.OpenRecord(bytes.Clone(rec.Bytes()))
	switch {
	case err != nil && !strings.Contains(err.Error(), "nesting too deep"):
		t.Fatalf("%q: the record does not open: %v", data, err)
	case err == nil:
		if opened.Len() != rec.Len() {
			t.Fatalf("%q: %d nodes, OpenRecord finds %d", data, rec.Len(), opened.Len())
		}
		for o := int32(0); o < int32(rec.Len()); o++ {
			a, b := rec.At(o), opened.At(o)
			ap, _ := a.Parent()
			bp, _ := b.Parent()
			if a.Kind() != b.Kind() || a.End() != b.End() || ap.Ord() != bp.Ord() || a.NameIndex() != b.NameIndex() ||
				!bytes.Equal(a.Name(), b.Name()) || !bytes.Equal(a.Data(), b.Data()) {
				t.Fatalf("%q: node %d is %v %q end %d parent %d; OpenRecord's is %v %q end %d parent %d",
					data, o, a.Kind(), a.Name(), a.End(), ap.Ord(), b.Kind(), b.Name(), b.End(), bp.Ord())
			}
		}
	}
	out := rec.Root().XML()
	var again xmldom.Record
	if err := xmldom.ParseRecord(&again, []byte(out)); err != nil {
		t.Fatalf("accepted document failed reparse: %v\ninput: %q\nserialized: %q", err, data, out)
	}
	if !bytes.Equal(again.Bytes(), rec.Bytes()) {
		t.Fatalf("round trip changed the record of %q: serialized %q, then %q", data, out, again.Root().XML())
	}
	if name, ok := xmldom.RootName(data); !ok || !bytes.Equal(name, rec.Element().Name()) {
		t.Fatalf("%q: RootName = %q, %v; the record's root is %q", data, name, ok, rec.Element().Name())
	}
}

// checkEncodingXML holds the node sequence ParseRecord writes for data to
// the token stream encoding/xml reads from it, on every input both
// accept: kinds, names, attributes in order, comments, PIs, and text runs
// after the whitespace rule. Where exactly one accepts, strict fails the
// test; otherwise the input is not compared.
//
// The two differ by design in these, and the comparison takes them into
// account:
//   - A DOCTYPE is skipped by ParseRecord; encoding/xml returns it as a
//     Directive, which is dropped.
//   - A record's text run is all the character data between two pieces
//     of markup other than CDATA sections, references resolved; encoding/xml
//     may split it at a CDATA section or a reference, so adjacent CharData
//     are joined.
//   - ParseRecord drops a run that is all whitespace (bytes.TrimSpace,
//     Unicode spaces included); the same rule is applied to the joined
//     runs.
//   - ParseRecord drops a PI with target xml beside the root element (the
//     XML declaration), and trims PI data at both ends; encoding/xml
//     returns the declaration and trims only leading XML whitespace.
//   - encoding/xml turns a raw "\r\n" or "\r" into "\n" in text and
//     attribute values, and keeps it in comments and PIs; ParseRecord
//     keeps it everywhere. ParseRecord reads the input with its line
//     endings normalized, and encoding/xml's comments and PIs are
//     compared normalized.
//   - encoding/xml splits a name at its colon; the parts are joined.
//
// And in what they accept, so such inputs are not compared:
//   - encoding/xml refuses a declared encoding other than UTF-8 (it has no
//     CharsetReader) and a version other than 1.0; invalid UTF-8, a
//     character outside XML's Char production (control bytes, U+FFFE,
//     a reference to one) and a name that is not an XML name. ParseRecord
//     takes all of them.
//   - encoding/xml reads a token stream, so it takes several root
//     elements, text beside the root and an empty input, and it does not
//     check for duplicate attributes; ParseRecord refuses all of them.
//   - ParseRecord's DOCTYPE skip counts angle brackets and ignores quotes
//     and comments, so a DOCTYPE with a '<' or '>' in a quoted string or
//     a comment may end elsewhere for each. An input whose DOCTYPE holds
//     a quote or a comment is not compared.
func checkEncodingXML(t testing.TB, data []byte, strict bool) {
	t.Helper()
	var rec xmldom.Record
	rerr := xmldom.ParseRecord(&rec, []byte(eol(string(data))))
	want, serr := encodingXMLTokens(data)
	if rerr != nil || serr != nil {
		if strict && (rerr == nil) != (serr == nil) {
			t.Fatalf("%q: ParseRecord error %v, encoding/xml error %v", data, rerr, serr)
		}
		return
	}
	got := recordTokens(rec.Root(), nil)
	if len(got) != len(want) {
		t.Fatalf("%q: ParseRecord wrote %d nodes and ends, encoding/xml read %d:\n%q\n%q", data, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%q: at %d ParseRecord wrote %q, encoding/xml read %q", data, i, got[i], want[i])
		}
	}
}

// eol is s with "\r\n" and "\r" turned into "\n".
func eol(s string) string {
	return strings.ReplaceAll(strings.ReplaceAll(s, "\r\n", "\n"), "\r", "\n")
}

// recordTokens appends the nodes of the subtree at x in document order,
// an element's end after its children.
func recordTokens(x xmldom.Ref, toks []string) []string {
	switch x.Kind() {
	case xmldom.ElementKind:
		tok := "<" + string(x.Name())
		for it := x.Attrs(); ; {
			n, v, ok := it.Next()
			if !ok {
				break
			}
			tok += fmt.Sprintf(" %s=%q", n, v)
		}
		toks = append(toks, tok)
		for c, ok := x.FirstChild(); ok; c, ok = c.NextSibling() {
			toks = recordTokens(c, toks)
		}
		return append(toks, "</"+string(x.Name()))
	case xmldom.DocumentKind:
		for c, ok := x.FirstChild(); ok; c, ok = c.NextSibling() {
			toks = recordTokens(c, toks)
		}
		return toks
	case xmldom.TextKind:
		return append(toks, fmt.Sprintf("text %q", x.Data()))
	case xmldom.CommentKind:
		return append(toks, fmt.Sprintf("comment %q", x.Data()))
	default:
		return append(toks, fmt.Sprintf("pi %s %q", x.Name(), x.Data()))
	}
}

// encodingXMLTokens reads data with encoding/xml in strict mode: the
// tokens recordTokens writes for the same document, or encoding/xml's
// error. A first pass with Token checks what RawToken does not (end tags
// match their start tags); the second reads names as written.
func encodingXMLTokens(data []byte) ([]string, error) {
	d := xml.NewDecoder(bytes.NewReader(data))
	for {
		if _, err := d.Token(); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
	}
	var toks []string
	var run []byte
	depth := 0
	d = xml.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := d.RawToken()
		if err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if cd, ok := tok.(xml.CharData); ok {
			run = append(run, cd...)
			continue
		}
		if len(bytes.TrimSpace(run)) > 0 {
			toks = append(toks, fmt.Sprintf("text %q", run))
		}
		run = run[:0]
		switch tok := tok.(type) {
		case xml.Directive:
			if bytes.ContainsAny(tok, `"'`) || bytes.Contains(tok, []byte("<!--")) {
				return nil, fmt.Errorf("not compared: a DOCTYPE with a quote or comment")
			}
		case xml.StartElement:
			depth++
			s := "<" + qname(tok.Name)
			for _, a := range tok.Attr {
				s += fmt.Sprintf(" %s=%q", qname(a.Name), a.Value)
			}
			toks = append(toks, s)
		case xml.EndElement:
			depth--
			toks = append(toks, "</"+qname(tok.Name))
		case xml.Comment:
			toks = append(toks, fmt.Sprintf("comment %q", eol(string(tok))))
		case xml.ProcInst:
			if depth > 0 || tok.Target != "xml" {
				toks = append(toks, fmt.Sprintf("pi %s %q", tok.Target, bytes.TrimSpace([]byte(eol(string(tok.Inst))))))
			}
		}
	}
	if len(bytes.TrimSpace(run)) > 0 {
		toks = append(toks, fmt.Sprintf("text %q", run))
	}
	return toks, nil
}

// qname is a name as written: encoding/xml splits it at its colon.
func qname(n xml.Name) string {
	if n.Space != "" {
		return n.Space + ":" + n.Local
	}
	return n.Local
}
