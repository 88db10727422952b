package xmldom_test

import (
	"bytes"
	"strings"
	"testing"

	"xbench/internal/core"
	"xbench/internal/gen"
	"xbench/internal/xmldom"
)

// sameTree checks a cursor against the decoded reference tree, node by
// node: kind, name, attributes, data, ord, parent and the order of
// children and siblings.
func sameTree(t *testing.T, x xmldom.Ref, n *xmldom.Node, parent *xmldom.Node) {
	if x.Kind() != n.Kind || x.Ord() != n.Ord {
		t.Fatalf("ord %d: kind/ord %v/%d, tree has %v/%d", x.Ord(), x.Kind(), x.Ord(), n.Kind, n.Ord)
	}
	if string(x.Name()) != n.Name {
		t.Fatalf("ord %d: name %q, tree has %q", x.Ord(), x.Name(), n.Name)
	}
	if (n.Kind == xmldom.ElementKind || n.Kind == xmldom.PIKind) && !x.Record().HasName(n.Name) {
		t.Fatalf("ord %d: HasName(%q) is false", x.Ord(), n.Name)
	}
	if n.Kind != xmldom.ElementKind && n.Kind != xmldom.DocumentKind && string(x.Data()) != n.Data {
		t.Fatalf("ord %d: data %q, tree has %q", x.Ord(), x.Data(), n.Data)
	}
	it := x.Attrs()
	for _, a := range n.Attrs {
		an, av, ok := it.Next()
		if !ok || string(an) != a.Name || string(av) != a.Value {
			t.Fatalf("ord %d: attribute %q=%q (%v), tree has %q=%q", x.Ord(), an, av, ok, a.Name, a.Value)
		}
		// Attr returns the first attribute of a name, as Node.Attr does.
		want, _ := n.Attr(a.Name)
		if got, ok := x.Attr(a.Name); !ok || string(got) != want {
			t.Fatalf("ord %d: Attr(%q) = %q (%v), tree has %q", x.Ord(), a.Name, got, ok, want)
		}
	}
	if _, _, ok := it.Next(); ok {
		t.Fatalf("ord %d: more attributes than the tree's %d", x.Ord(), len(n.Attrs))
	}
	p, ok := x.Parent()
	if ok != (parent != nil) || (ok && p.Ord() != parent.Ord) {
		t.Fatalf("ord %d: parent %v (%v), tree has %v", x.Ord(), p.Ord(), ok, parent)
	}
	if got, want := string(x.Text()), n.Text(); got != want {
		t.Fatalf("ord %d: string value %q, tree has %q", x.Ord(), got, want)
	}
	if got, want := int(x.End()-x.Ord()), n.CountNodes(); got != want {
		t.Fatalf("ord %d: subtree of %d nodes, tree has %d", x.Ord(), got, want)
	}
	c, ok := x.FirstChild()
	for _, nc := range n.Children {
		if !ok {
			t.Fatalf("ord %d: children end before the tree's %d", x.Ord(), len(n.Children))
		}
		sameTree(t, c, nc, n)
		c, ok = c.NextSibling()
	}
	if ok {
		t.Fatalf("ord %d: more children than the tree's %d", x.Ord(), len(n.Children))
	}
}

// checkCursor is the differential property: OpenRecord and DecodeBinary
// agree on accept/reject, and for accepted bytes a full traversal, the
// serialization and the rebuilt tree equal the reference decoder's.
func checkCursor(t *testing.T, data []byte) {
	t.Helper()
	tree, derr := xmldom.DecodeBinary(data)
	rec, oerr := xmldom.OpenRecord(data)
	if (derr == nil) != (oerr == nil) {
		t.Fatalf("DecodeBinary: %v, OpenRecord: %v", derr, oerr)
	}
	if derr != nil {
		return
	}
	if rec.Len() != tree.CountNodes() {
		t.Fatalf("record has %d nodes, tree %d", rec.Len(), tree.CountNodes())
	}
	sameTree(t, rec.Root(), tree, nil)
	var buf bytes.Buffer
	rec.Root().AppendXML(&buf)
	if !bytes.Equal(buf.Bytes(), tree.XMLBytes()) {
		t.Fatalf("cursor XML %q, tree XML %q", buf.Bytes(), tree.XMLBytes())
	}
	if !xmldom.Equal(rec.Root().Node(), tree) {
		t.Fatal("Ref.Node differs from DecodeBinary")
	}
}

// classSeeds returns one small generated document per class, encoded.
func classSeeds(t testing.TB) [][]byte {
	var out [][]byte
	cfg := gen.Config{Seed: 7, DictEntries: 4, Articles: 1, Items: 3, Orders: 2}
	for _, class := range core.Classes {
		db, err := cfg.Generate(class, core.Small)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := xmldom.Parse(db.Docs[0].Data)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, xmldom.EncodeBinary(doc))
	}
	return out
}

// FuzzCursor runs the cursor against DecodeBinary on arbitrary bytes.
func FuzzCursor(f *testing.F) {
	f.Add([]byte("XDM1"))
	f.Add(xmldom.EncodeBinary(xmldom.MustParse(`<a x="1"><b>t</b></a>`)))
	f.Add(xmldom.EncodeBinary(xmldom.MustParse(
		`<?xml version="1.0"?><!-- c --><r k="&lt;&quot;"><?pi d?><?q?><x>&amp;<i>m</i>&gt;</x><e/></r>`)))
	for _, seed := range classSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkCursor(t, data) })
}

func TestCursorMatchesDecode(t *testing.T) {
	for _, seed := range classSeeds(t) {
		checkCursor(t, seed)
	}
	// Subtrees other than the root serialize and rebuild alike.
	doc := xmldom.MustParse(`<a><b x="1">t<c/>u</b><d>v</d></a>`)
	rec, err := xmldom.RecordOf(doc)
	if err != nil {
		t.Fatal(err)
	}
	b := doc.Root().FirstChild("b")
	rb := rec.At(b.Ord)
	if rb.XML() != b.XML() || !xmldom.Equal(rb.Node(), b) {
		t.Fatalf("subtree: cursor %s, tree %s", rb.XML(), b.XML())
	}
	if rec.HasName("nope") || !rec.HasName("d") {
		t.Fatal("HasName wrong")
	}
}

func TestCursorRejectsWhatDecodeRejects(t *testing.T) {
	valid := xmldom.EncodeBinary(xmldom.MustParse(`<a x="1"><b>t</b><c/></a>`))
	checkCursor(t, append(append([]byte(nil), valid...), 0))
	for cut := 0; cut < len(valid); cut++ {
		checkCursor(t, valid[:cut])
	}
	for i := range valid {
		for _, b := range []byte{0x00, 0x7f, 0x80, 0xff} {
			mutated := append([]byte(nil), valid...)
			mutated[i] = b
			checkCursor(t, mutated)
		}
	}
	// Nesting one level past the limit, and exactly at it.
	deep := func(levels int) []byte {
		d := []byte("XDM1\x01\x01a")
		for i := 0; i < levels; i++ {
			d = append(d, byte(xmldom.ElementKind), 0, 0, 1)
		}
		return append(d, byte(xmldom.ElementKind), 0, 0, 0)
	}
	checkCursor(t, deep(4096))
	checkCursor(t, deep(4097))
}

// TestOpenRecordAllocations: opening allocates the same handful of
// objects for a 10-node and a 10,000-node document.
func TestOpenRecordAllocations(t *testing.T) {
	build := func(leaves int) []byte {
		doc := &xmldom.Node{Kind: xmldom.DocumentKind}
		root := doc.AddElement("r")
		for i := 0; i < leaves; i++ {
			root.AddElement("leaf").AddText(strings.Repeat("x", 1+i%9))
		}
		return xmldom.EncodeBinary(doc)
	}
	allocs := func(data []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := xmldom.OpenRecord(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(build(4)), allocs(build(5000))
	if small != large || large > 4 {
		t.Fatalf("OpenRecord allocates %v objects for 10 nodes, %v for 10,000", small, large)
	}
}
