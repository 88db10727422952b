package xmldom_test

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"xbench/internal/core"
	"xbench/internal/gen"
	"xbench/internal/xmldom"
)

// sameTree checks a cursor against the decoded reference tree, node by
// node: kind, name, attributes, data, ord, parent and the order of
// children and siblings.
func sameTree(t *testing.T, x xmldom.Ref, n *xmldom.DecodedNode, parent *xmldom.DecodedNode) {
	if x.Kind() != n.Kind || x.Ord() != n.Ord {
		t.Fatalf("ord %d: kind/ord %v/%d, tree has %v/%d", x.Ord(), x.Kind(), x.Ord(), n.Kind, n.Ord)
	}
	if string(x.Name()) != n.Name {
		t.Fatalf("ord %d: name %q, tree has %q", x.Ord(), x.Name(), n.Name)
	}
	if (n.Kind == xmldom.ElementKind || n.Kind == xmldom.PIKind) && len(x.Record().NameIndexes(nil, n.Name)) == 0 {
		t.Fatalf("ord %d: NameIndexes(%q) is empty", x.Ord(), n.Name)
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
		// Attr returns the first attribute of a name, as the tree's does.
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
	if got, want := int(x.End()-x.Ord()), n.Count(); got != want {
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
// agree on accept/reject, and for accepted bytes a full traversal and the
// serialization equal the reference decoder's tree.
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
	if rec.Len() != tree.Count() {
		t.Fatalf("record has %d nodes, tree %d", rec.Len(), tree.Count())
	}
	sameTree(t, rec.Root(), tree, nil)
	// Every element's name finds its dictionary entry.
	for o := int32(0); o < int32(rec.Len()); o++ {
		x := rec.At(o)
		if x.Kind() != xmldom.ElementKind {
			continue
		}
		if ids := rec.NameIndexes(nil, string(x.Name())); !slices.Contains(ids, x.NameIndex()) {
			t.Fatalf("element %d named %q, entry %d: NameIndexes = %v", o, x.Name(), x.NameIndex(), ids)
		}
	}
	var buf bytes.Buffer
	rec.Root().AppendXML(&buf)
	if !bytes.Equal(buf.Bytes(), tree.XMLBytes()) {
		t.Fatalf("cursor XML %q, tree XML %q", buf.Bytes(), tree.XMLBytes())
	}
}

// encoded returns the binary DOM ParseRecord writes for src.
func encoded(t testing.TB, src string) []byte {
	t.Helper()
	var rec xmldom.Record
	if err := xmldom.ParseRecord(&rec, []byte(src)); err != nil {
		t.Fatal(err)
	}
	return rec.Bytes()
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
		out = append(out, encoded(t, string(db.Docs[0].Data)))
	}
	return out
}

// FuzzCursor runs the cursor against DecodeBinary on arbitrary bytes.
func FuzzCursor(f *testing.F) {
	f.Add([]byte("XDM1"))
	f.Add(encoded(f, `<a x="1"><b>t</b></a>`))
	f.Add(encoded(f,
		`<?xml version="1.0"?><!-- c --><r k="&lt;&quot;"><?pi d?><?q?><x>&amp;<i>m</i>&gt;</x><e/></r>`))
	for _, seed := range classSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkCursor(t, data) })
}

func TestCursorMatchesDecode(t *testing.T) {
	for _, seed := range classSeeds(t) {
		checkCursor(t, seed)
	}
	for _, src := range edgeDocs {
		checkCursor(t, encoded(t, src))
	}
	// Subtrees other than the root serialize alike.
	data := encoded(t, `<a><b x="1">t<c/>u</b><d>v</d></a>`)
	tree, err := xmldom.DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := xmldom.OpenRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	b := tree.Children[0].Children[0]
	if rb := rec.At(b.Ord); rb.XML() != string(b.XMLBytes()) {
		t.Fatalf("subtree: cursor %s, tree %s", rb.XML(), b.XMLBytes())
	}
	if nope, d := rec.NameIndexes(nil, "nope"), rec.NameIndexes(nil, "d"); len(nope) != 0 || !slices.Equal(d, []int32{3}) {
		t.Fatalf("NameIndexes: nope %v, d %v; want [] and [3]", nope, d)
	}
}

// TestFootprintCountsWhatOpenRecordHolds: a record's Footprint is its
// bytes plus what OpenRecord allocates for it, up to the allocator's
// rounding.
func TestFootprintCountsWhatOpenRecordHolds(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := range 20000 {
		fmt.Fprintf(&b, `<e%d k="v">text</e%d>`, i%50, i%50)
	}
	b.WriteString("</r>")
	data := encoded(t, b.String())
	if _, err := xmldom.OpenRecord(data); err != nil { // takes a scratch table
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec, err := xmldom.OpenRecord(data)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	held := rec.Footprint() - int64(len(data))
	if alloc := int64(after.TotalAlloc - before.TotalAlloc); alloc < held || alloc > held+held/20 {
		t.Fatalf("OpenRecord of %d nodes allocated %d bytes; Footprint counts %d beyond the data", rec.Len(), alloc, held)
	}
}

func TestCursorRejectsWhatDecodeRejects(t *testing.T) {
	valid := encoded(t, `<a x="1"><b>t</b><c/></a>`)
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
		var b strings.Builder
		b.WriteString("<r>")
		for i := 0; i < leaves; i++ {
			b.WriteString("<leaf>" + strings.Repeat("x", 1+i%9) + "</leaf>")
		}
		b.WriteString("</r>")
		return encoded(t, b.String())
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

// BenchmarkOpenRecord opens a catalog of 500 items, and the records the
// native engine's cold queries over the Normal databases of seed 7 open:
// an order of DC/MD and an article of TC/MD.
func BenchmarkOpenRecord(b *testing.B) {
	for _, c := range []struct {
		name string
		data func() []byte
	}{
		{"catalog", func() []byte { return encoded(b, benchDoc()) }},
		{"dcmd-order", func() []byte { return generated(b, core.DCMD, "order1.xml") }},
		{"tcmd-article", func() []byte { return generated(b, core.TCMD, "article1.xml") }},
	} {
		data := c.data()
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := xmldom.OpenRecord(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchDoc returns a catalog of 500 items.
func benchDoc() string {
	var b strings.Builder
	b.WriteString("<catalog>")
	for i := 0; i < 500; i++ {
		b.WriteString(`<item id="I1"><title>Some Book Title With Words</title>` +
			`<description>a moderately long description of the item with many words in it</description>` +
			`<authors><author><name>Ada Adams</name><country>Canada</country></author></authors></item>`)
	}
	b.WriteString("</catalog>")
	return b.String()
}

// generated returns the named document of class's Normal database of
// seed 7, encoded.
func generated(tb testing.TB, class core.Class, name string) []byte {
	db, err := gen.Config{Seed: 7}.Generate(class, core.Normal)
	if err != nil {
		tb.Fatal(err)
	}
	for _, d := range db.Docs {
		if d.Name == name {
			return encoded(tb, string(d.Data))
		}
	}
	tb.Fatalf("%s Normal has no %s", class, name)
	return nil
}
