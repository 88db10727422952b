package xmldom

import (
	"bytes"
	"fmt"
	"strings"
)

// escapeText writes s with &, < and > escaped (character-data context).
func escapeText[S string | []byte](w *bytes.Buffer, s S) {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '&':
			w.WriteString("&amp;")
		case '<':
			w.WriteString("&lt;")
		case '>':
			w.WriteString("&gt;")
		default:
			w.WriteByte(s[i])
		}
	}
}

// escapeAttr writes s escaped for a double-quoted attribute value.
func escapeAttr[S string | []byte](w *bytes.Buffer, s S) {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '&':
			w.WriteString("&amp;")
		case '<':
			w.WriteString("&lt;")
		case '"':
			w.WriteString("&quot;")
		default:
			w.WriteByte(s[i])
		}
	}
}

// writeAttr writes ` name="value"`, the value escaped.
func writeAttr[S string | []byte](w *bytes.Buffer, name string, value S) {
	w.WriteByte(' ')
	w.WriteString(name)
	w.WriteString(`="`)
	escapeAttr(w, value)
	w.WriteByte('"')
}

// Encoder writes XML incrementally. The database generators use it to emit
// documents without materializing a DOM, keeping memory flat even at the
// 1 GB paper scale; the relational engines use it in fragment mode to
// write query results straight from stored rows.
type Encoder struct {
	buf   bytes.Buffer
	stack []string
	err   error
	// fragment is NewFragment's mode; pending is set between a fragment
	// element's Begin and its first content, while its start tag is open.
	fragment, pending bool
}

// NewEncoder returns an encoder that writes the standard XML declaration.
func NewEncoder() *Encoder {
	e := &Encoder{}
	e.buf.WriteString(`<?xml version="1.0" encoding="UTF-8"?>`)
	e.buf.WriteByte('\n')
	return e
}

// NewFragment returns an encoder of bare fragments, taken one at a time
// with Item: no declaration, and start tags stay open for Attr until the
// element's first content, so one that gets none ends as <name/> — the
// bytes Ref.AppendXML writes for the same element.
func NewFragment() *Encoder { return &Encoder{fragment: true} }

// content ends a pending start tag before the element's first content.
func (e *Encoder) content() {
	if e.pending {
		e.buf.WriteByte('>')
		e.pending = false
	}
}

// Begin opens <name attr...>. Attrs are passed as alternating name, value
// strings for brevity at the hundreds of call sites in the generators.
func (e *Encoder) Begin(name string, attrs ...string) *Encoder {
	if e.open(name, attrs) {
		if e.pending = e.fragment; !e.pending {
			e.buf.WriteByte('>')
		}
		e.stack = append(e.stack, name)
	}
	return e
}

// open ends a pending start tag and writes `<name attr...`, unless the
// attribute list is odd.
func (e *Encoder) open(name string, attrs []string) bool {
	if len(attrs)%2 != 0 {
		e.fail("odd attribute list for <" + name + ">")
		return false
	}
	e.content()
	e.buf.WriteByte('<')
	e.buf.WriteString(name)
	for i := 0; i < len(attrs); i += 2 {
		writeAttr(&e.buf, attrs[i], attrs[i+1])
	}
	return true
}

// Attr adds an attribute to the start tag a fragment encoder has open.
func (e *Encoder) Attr(name string, value []byte) *Encoder {
	if !e.pending {
		e.fail("attribute " + name + " outside an open start tag")
		return e
	}
	writeAttr(&e.buf, name, value)
	return e
}

// Text appends escaped character data.
func (e *Encoder) Text(s string) *Encoder {
	if s != "" {
		e.content()
		escapeText(&e.buf, s)
	}
	return e
}

// TextBytes is Text for character data held as bytes.
func (e *Encoder) TextBytes(b []byte) *Encoder {
	if len(b) > 0 {
		e.content()
		escapeText(&e.buf, b)
	}
	return e
}

// End closes the most recently opened element.
func (e *Encoder) End() *Encoder {
	if len(e.stack) == 0 {
		e.fail("End with no open element")
		return e
	}
	name := e.stack[len(e.stack)-1]
	e.stack = e.stack[:len(e.stack)-1]
	if e.pending {
		e.pending = false
		e.buf.WriteString("/>")
		return e
	}
	e.buf.WriteString("</")
	e.buf.WriteString(name)
	e.buf.WriteByte('>')
	return e
}

// Leaf writes <name>text</name> in one call (or <name/> for empty text).
func (e *Encoder) Leaf(name, text string, attrs ...string) *Encoder {
	if text == "" && len(attrs) == 0 {
		return e.Empty(name)
	}
	return e.Begin(name, attrs...).Text(text).End()
}

// Empty writes a self-closing <name attr.../> element.
func (e *Encoder) Empty(name string, attrs ...string) *Encoder {
	if e.open(name, attrs) {
		e.buf.WriteString("/>")
	}
	return e
}

// Item returns the fragment written since the previous Item, "" when
// nothing was, and starts the next.
func (e *Encoder) Item() string {
	s := e.buf.String()
	e.buf.Reset()
	return s
}

func (e *Encoder) fail(msg string) {
	if e.err == nil {
		e.err = fmt.Errorf("xmldom: encoder: %s", msg)
	}
}

// Bytes finishes the document and returns it. It returns an error if
// elements remain open or a structural misuse occurred.
func (e *Encoder) Bytes() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	if len(e.stack) != 0 {
		return nil, fmt.Errorf("xmldom: encoder: %d unclosed element(s): %s",
			len(e.stack), strings.Join(e.stack, ", "))
	}
	return e.buf.Bytes(), nil
}
