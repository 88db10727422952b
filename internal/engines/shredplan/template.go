package shredplan

import (
	"bytes"

	"xbench/internal/relational"
	"xbench/internal/xmldom"
)

// tkind is what a template node writes.
type tkind int

const (
	tElem  tkind = iota // an element around its kids; with col, only where col is not NULL
	tAttr               // an attribute of the element being written, none for NULL
	tText               // a column's text, nothing for NULL
	tLit                // fixed text
	tEach               // its kids once per row of a lookup
	tValue              // the whole item: a column's value as stored, none for NULL
)

// tmpl is how Emit writes an item from a row and the rows its lookups
// found. NULL has two readings, and the template says which: a copied
// element (leaf) is omitted when its column is NULL, as the absent element
// it stands for; a string() constructor (str) writes an empty element.
type tmpl struct {
	kind tkind
	name string // element or attribute name; tLit: the text
	col  column // tElem (its condition), tAttr, tText, tValue
	from int    // tEach: which lookup's rows
	// tEach: only the rows whose column match equals the outer row's to.
	match, to column
	first     bool // tEach: only the first row
	nonEmpty  bool // tElem: not written when its each kid has no row
	kids      []*tmpl
}

func elem(name string, kids ...*tmpl) *tmpl { return &tmpl{kind: tElem, name: name, kids: kids} }

// leafOf is a copied element: <name> holding column c, none where c is NULL.
func leafOf(name, c string) *tmpl { return ifNotNull(c, str(name, c)) }

func leaf(name string) *tmpl { return leafOf(name, name) }

// str is a string() constructor: <name> holding column c, empty where c
// is NULL.
func str(name, c string) *tmpl { return elem(name, text(c)) }

func text(c string) *tmpl  { return &tmpl{kind: tText, col: column{name: c}} }
func attr(c string) *tmpl  { return &tmpl{kind: tAttr, name: c, col: column{name: c}} }
func lit(s string) *tmpl   { return &tmpl{kind: tLit, name: s} }
func value(c string) *tmpl { return &tmpl{kind: tValue, col: column{name: c}} }

// ifNotNull writes the element t only where column c is not NULL.
func ifNotNull(c string, t *tmpl) *tmpl {
	t.col = column{name: c}
	return t
}

// each writes kids for every row lookup from found.
func each(from int, kids ...*tmpl) *tmpl { return &tmpl{kind: tEach, from: from, kids: kids} }

// eachFirst writes kids for the first row lookup from found.
func eachFirst(from int, kids ...*tmpl) *tmpl {
	t := each(from, kids...)
	t.first = true
	return t
}

// eachWith writes kids for the rows lookup from found whose column match
// equals the outer row's column to: the nesting a shredded table lost.
func eachWith(from int, match, to string, kids ...*tmpl) *tmpl {
	t := each(from, kids...)
	t.match, t.to = column{name: match}, column{name: to}
	return t
}

// nonEmpty omits the element t, whose one kid is an each, when that each
// writes nothing.
func nonEmpty(t *tmpl) *tmpl {
	t.nonEmpty = true
	return t
}

// resolve binds t's columns: the outer row's are cols, an each's kids
// read the rows of lookup in[from].
func (t *tmpl) resolve(cols []string, in [][]string) {
	if t.col.name != "" {
		t.col = col(cols, t.col.name)
	}
	if t.kind == tEach {
		if t.to.name != "" {
			t.match, t.to = col(in[t.from], t.match.name), col(cols, t.to.name)
		}
		cols = in[t.from]
	}
	for _, k := range t.kids {
		k.resolve(cols, in)
	}
}

// String names what t writes, as Explain prints it.
func (t *tmpl) String() string {
	if t.kind == tValue {
		return t.col.name
	}
	return t.name
}

// write writes t for row r into enc; in holds the rows of each lookup.
func (t *tmpl) write(enc *xmldom.Encoder, r relational.Rec, in [][]relational.Rec) {
	switch t.kind {
	case tElem:
		if t.col.name != "" && r.Null(t.col.i) || t.nonEmpty && !t.kids[0].any(r, in) {
			return
		}
		enc.Begin(t.name)
		for _, k := range t.kids {
			k.write(enc, r, in)
		}
		enc.End()
	case tAttr:
		if !r.Null(t.col.i) {
			enc.Attr(t.name, r.Col(t.col.i))
		}
	case tText:
		if !r.Null(t.col.i) {
			enc.TextBytes(r.Col(t.col.i))
		}
	case tLit:
		enc.Text(t.name)
	case tEach:
		for _, c := range in[t.from] {
			if t.matches(c, r) {
				for _, k := range t.kids {
					k.write(enc, c, in)
				}
				if t.first {
					break
				}
			}
		}
	}
}

func (t *tmpl) matches(c, r relational.Rec) bool {
	return t.to.name == "" || bytes.Equal(c.Col(t.match.i), r.Col(t.to.i))
}

// any reports whether the each t writes anything for r.
func (t *tmpl) any(r relational.Rec, in [][]relational.Rec) bool {
	for _, c := range in[t.from] {
		if t.matches(c, r) {
			return true
		}
	}
	return false
}
