package xquery

import (
	"fmt"
	"testing"

	"xbench/internal/core"
	"xbench/internal/gen"
	"xbench/internal/xmldom"
)

// matchXMLSeeds are documents that spell "system" in every way markup and
// references allow — split by an element, an empty element, a comment,
// a PI, an end and a start tag, a CDATA section, a reference — at every
// split point, beside ones that hold it only where no string value does.
func matchXMLSeeds() []string {
	word := "system"
	var docs []string
	for _, split := range []func(a, b string) string{
		func(a, b string) string { return a + "<kw>" + b + "</kw>" },
		func(a, b string) string { return a + "<kw/>" + b },
		func(a, b string) string { return a + "<!-- c -->" + b },
		func(a, b string) string { return a + "<?pi x>y?>" + b },
		func(a, b string) string { return "<i>" + a + `</i><i n="a>b">` + b + "</i>" },
		func(a, b string) string { return a + "<![CDATA[" + b + "]]>" },
		func(a, b string) string { return fmt.Sprintf("%s&#%d;%s", a, b[0], b[1:]) },
		func(a, b string) string { return fmt.Sprintf("%s&#x%X;%s", a, b[0], b[1:]) },
	} {
		for m := 1; m < len(word); m++ {
			docs = append(docs, "<p>the "+split(word[:m], word[m:])+" here</p>")
		}
	}
	return append(docs,
		`<p>the sys<a><b/></a>TEM, here</p>`,
		`<p><a>sy</a><!--x--><b>s<c/>tem</b></p>`,
		`<p a="system">sys tem<!-- system --><?system?></p>`,
		`<p>ecosystem systems<x/>s</p>`,
		`<p>&lt;system&gt;</p>`,
		`<p>s&#121;stem</p>`,
		`<p>syst&#xC9;m system&#xC9;</p>`,
	)
}

// FuzzMatchXML: MatchXML skips no match. For any document the parser
// accepts, a word that some element's string value contains as a whole
// word (ContainsWord) makes MatchXML true.
func FuzzMatchXML(f *testing.F) {
	for _, d := range matchXMLSeeds() {
		f.Add(d, "system")
	}
	f.Add(`<a>k<b/>w</a>`, "KW")
	f.Add("<a>K<b/>w</a>", "kw")
	f.Add(`<a>a<b/>&amp;<c/>b</a>`, "a&b")
	f.Fuzz(func(t *testing.T, data, word string) {
		var rec xmldom.Record
		if xmldom.ParseRecord(&rec, []byte(data)) != nil {
			return
		}
		holds := false
		for o := int32(0); o < int32(rec.Len()) && !holds; o++ {
			x := rec.At(o)
			holds = x.Kind() == xmldom.ElementKind && ContainsWord(x.Text(), word)
		}
		if holds && !CompileWord(word).MatchXML([]byte(data)) {
			t.Fatalf("MatchXML(%q) is false for %q, which an element's string value contains", data, word)
		}
	})
}

// TestMatchXMLKeepsTheRawPrefilter: where markup splits no word,
// MatchXML answers what Match does on the raw bytes — a word only in an
// attribute value or a comment included — so a scan skips what it
// skipped before.
func TestMatchXMLKeepsTheRawPrefilter(t *testing.T) {
	w := CompileWord("system")
	for _, c := range []struct {
		doc  string
		want bool
	}{
		{`<p>the system here</p>`, true},
		{`<p a="system"/>`, true},
		{`<p>sys tem<!-- system --></p>`, true},
		{`<p>ecosystems</p>`, false},
		{`<r><name>Adams</name><affiliation>The Place</affiliation></r>`, false},
		{`<r><kw>was</kw><kw>to</kw><kw>the</kw></r>`, false},
		{`<r>sy<a/>s <b/>tem</r>`, false},
		{`<r>the sys<kw>tem</kw></r>`, true},
	} {
		if got := w.MatchXML([]byte(c.doc)); got != c.want {
			t.Errorf("MatchXML(%q) = %v, want %v", c.doc, got, c.want)
		}
	}
}

// BenchmarkMatchXML: Xcolumn's Q17 prefilter over the documents a cold
// Q17 tests with it — the orders of DC/MD, the articles of TC/MD, at
// Normal and generator seed 7 — against the raw-byte Match it extends;
// one op is one pass.
func BenchmarkMatchXML(b *testing.B) {
	for class, root := range map[core.Class]string{core.DCMD: "order", core.TCMD: "article"} {
		db, err := gen.Config{Seed: 7}.Generate(class, core.Normal)
		if err != nil {
			b.Fatal(err)
		}
		var docs [][]byte
		size := 0
		for _, d := range db.Docs {
			if name, ok := xmldom.RootName(d.Data); ok && string(name) == root {
				docs, size = append(docs, d.Data), size+len(d.Data)
			}
		}
		w := CompileWord("system")
		for name, match := range map[string]func([]byte) bool{"raw": w.Match, "xml": w.MatchXML} {
			b.Run(class.String()+"/"+name, func(b *testing.B) {
				b.SetBytes(int64(size))
				for range b.N {
					for _, d := range docs {
						match(d)
					}
				}
			})
		}
	}
}
