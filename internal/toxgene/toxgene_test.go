package toxgene

import (
	"bytes"
	"encoding/xml"
	"io"
	"strings"
	"testing"

	"xbench/internal/stats"
)

func TestDocumentBasic(t *testing.T) {
	tmpl := &Tmpl{
		Name:  "root",
		Attrs: []AttrTmpl{{Name: "v", Value: Const("1")}},
		Children: []*Tmpl{
			{Name: "leaf", Content: Const("text")},
		},
	}
	b, err := Document(tmpl, 1)
	if err != nil {
		t.Fatal(err)
	}
	root := parseXML(t, b)
	if root.name != "root" {
		t.Fatalf("root = %s", root.name)
	}
	if v := root.attrs["v"]; v != "1" {
		t.Fatal("attr missing")
	}
	if root.child("leaf").text != "text" {
		t.Fatal("leaf content missing")
	}
}

func TestDocumentDeterministic(t *testing.T) {
	tmpl := &Tmpl{
		Name: "r",
		Children: []*Tmpl{{
			Name:  "c",
			Count: stats.Uniform{Lo: 1, Hi: 9},
			Content: func(ctx *Ctx) string {
				return strings.Repeat("x", 1+ctx.R.Intn(5))
			},
		}},
	}
	a, _ := Document(tmpl, 7)
	b, _ := Document(tmpl, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different documents")
	}
	c, _ := Document(tmpl, 8)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical documents")
	}
}

func TestCountDistribution(t *testing.T) {
	tmpl := &Tmpl{
		Name: "r",
		Children: []*Tmpl{{
			Name:    "c",
			Count:   stats.Uniform{Lo: 3, Hi: 3},
			Content: Const("x"),
		}},
	}
	b, _ := Document(tmpl, 1)
	if n := len(parseXML(t, b).children("c")); n != 3 {
		t.Fatalf("expected exactly 3 children, got %d", n)
	}
}

func TestOptionalProbability(t *testing.T) {
	tmpl := &Tmpl{
		Name: "r",
		Children: []*Tmpl{
			{Name: "always", Content: Const("x")},
			{Name: "sometimes", Prob: 0.5, Content: Const("y")},
		},
	}
	present, absent := 0, 0
	for seed := uint64(0); seed < 60; seed++ {
		b, _ := Document(tmpl, seed)
		root := parseXML(t, b)
		if root.child("always") == nil {
			t.Fatal("mandatory child missing")
		}
		if root.child("sometimes") != nil {
			present++
		} else {
			absent++
		}
	}
	if present == 0 || absent == 0 {
		t.Fatalf("Prob=0.5 not probabilistic: present=%d absent=%d", present, absent)
	}
}

func TestAttrProbability(t *testing.T) {
	tmpl := &Tmpl{
		Name: "r",
		Attrs: []AttrTmpl{
			{Name: "always", Value: Const("a")},
			{Name: "maybe", Value: Const("b"), Prob: 0.5},
		},
	}
	with, without := 0, 0
	for seed := uint64(0); seed < 60; seed++ {
		b, _ := Document(tmpl, seed)
		root := parseXML(t, b)
		if _, ok := root.attrs["always"]; !ok {
			t.Fatal("mandatory attribute missing")
		}
		if _, ok := root.attrs["maybe"]; ok {
			with++
		} else {
			without++
		}
	}
	if with == 0 || without == 0 {
		t.Fatalf("attr Prob=0.5 not probabilistic: with=%d without=%d", with, without)
	}
}

func TestSeqAndIndex(t *testing.T) {
	tmpl := &Tmpl{
		Name: "r",
		Children: []*Tmpl{{
			Name:  "item",
			Count: stats.Uniform{Lo: 4, Hi: 4},
			Attrs: []AttrTmpl{{Name: "id", Value: Seq("I")}},
		}},
	}
	b, _ := Document(tmpl, 1)
	items := parseXML(t, b).children("item")
	for i, it := range items {
		want := "I" + string(rune('1'+i))
		if v := it.attrs["id"]; v != want {
			t.Fatalf("item %d id = %q, want %q", i, v, want)
		}
	}
}

func TestMixedContent(t *testing.T) {
	tmpl := &Tmpl{
		Name:    "qt",
		Content: Const("before "),
		Children: []*Tmpl{
			{Name: "i", Content: Const("inline")},
		},
		Tail: Const(" after"),
	}
	b, _ := Document(tmpl, 1)
	root := parseXML(t, b)
	if !root.mixed() {
		t.Fatalf("no mixed content in %s", b)
	}
	if got := root.text; got != "before inline after" {
		t.Fatalf("text = %q", got)
	}
}

func TestBeforeHookAndVars(t *testing.T) {
	tmpl := &Tmpl{
		Name: "r",
		Before: func(ctx *Ctx) {
			ctx.Vars["word"] = "shared"
		},
		Children: []*Tmpl{{
			Name: "c",
			Content: func(ctx *Ctx) string {
				return ctx.Vars["word"].(string)
			},
		}},
	}
	b, _ := Document(tmpl, 1)
	if parseXML(t, b).child("c").text != "shared" {
		t.Fatal("Vars not shared from Before hook")
	}
}

func TestNestedPathIndexes(t *testing.T) {
	tmpl := &Tmpl{
		Name: "r",
		Children: []*Tmpl{{
			Name:  "outer",
			Count: stats.Uniform{Lo: 2, Hi: 2},
			Children: []*Tmpl{{
				Name:  "inner",
				Count: stats.Uniform{Lo: 2, Hi: 2},
				Content: func(ctx *Ctx) string {
					return string(rune('a'+ctx.IndexAt(1))) + string(rune('0'+ctx.Index()))
				},
			}},
		}},
	}
	b, _ := Document(tmpl, 1)
	var got []string
	for _, o := range parseXML(t, b).children("outer") {
		for _, in := range o.children("inner") {
			got = append(got, in.text)
		}
	}
	want := []string{"a0", "a1", "b0", "b1"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("path indexes wrong: got %v want %v", got, want)
		}
	}
}

func TestSiblingInsensitivity(t *testing.T) {
	// Instance i's content must depend only on its own split stream, not on
	// how many earlier siblings were drawn: with a fixed count, instance
	// content should be identical across two generations.
	child := &Tmpl{
		Name:  "c",
		Count: stats.Uniform{Lo: 5, Hi: 5},
		Content: func(ctx *Ctx) string {
			return strings.Repeat("z", 1+ctx.R.Intn(9))
		},
	}
	tmpl := &Tmpl{Name: "r", Children: []*Tmpl{child}}
	a, _ := Document(tmpl, 3)
	b, _ := Document(tmpl, 3)
	if !bytes.Equal(a, b) {
		t.Fatal("sibling streams not deterministic")
	}
}

func TestIndexAtOutOfRange(t *testing.T) {
	c := &Ctx{Path: []int{4}}
	if c.IndexAt(-1) != 0 || c.IndexAt(5) != 0 {
		t.Fatal("out-of-range IndexAt should return 0")
	}
	if c.Index() != 4 {
		t.Fatal("Index wrong")
	}
	empty := &Ctx{}
	if empty.Index() != 0 {
		t.Fatal("empty ctx Index should be 0")
	}
}

// elem is an element as encoding/xml, a parser that shares no code with
// the one the engines run, reads it: its attributes, its child elements,
// its string value, and whether it holds non-blank text of its own.
type elem struct {
	name    string
	attrs   map[string]string
	kids    []*elem
	text    string
	hasText bool
}

// parseXML reads data's root element with encoding/xml.
func parseXML(t *testing.T, data []byte) *elem {
	t.Helper()
	d := xml.NewDecoder(bytes.NewReader(data))
	var root *elem
	var open []*elem
	for {
		tok, err := d.Token()
		if err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			e := &elem{name: tok.Name.Local, attrs: map[string]string{}}
			for _, a := range tok.Attr {
				e.attrs[a.Name.Local] = a.Value
			}
			if len(open) == 0 {
				root = e
			} else {
				p := open[len(open)-1]
				p.kids = append(p.kids, e)
			}
			open = append(open, e)
		case xml.EndElement:
			open = open[:len(open)-1]
		case xml.CharData:
			if len(open) > 0 {
				open[len(open)-1].hasText = open[len(open)-1].hasText || len(bytes.TrimSpace(tok)) > 0
			}
			for _, e := range open {
				e.text += string(tok)
			}
		}
	}
	return root
}

// child returns e's first child element named name, or nil.
func (e *elem) child(name string) *elem {
	if cs := e.children(name); len(cs) > 0 {
		return cs[0]
	}
	return nil
}

// children returns e's child elements named name; a nil e, an absent
// element, has none.
func (e *elem) children(name string) []*elem {
	if e == nil {
		return nil
	}
	var cs []*elem
	for _, k := range e.kids {
		if k.name == name {
			cs = append(cs, k)
		}
	}
	return cs
}

// mixed reports whether e holds non-blank text beside child elements.
func (e *elem) mixed() bool { return e.hasText && len(e.kids) > 0 }
