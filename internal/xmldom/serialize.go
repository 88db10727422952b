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

// AppendXML serializes the subtree rooted at n into buf.
func (n *Node) AppendXML(buf *bytes.Buffer) {
	switch n.Kind {
	case DocumentKind:
		for _, c := range n.Children {
			c.AppendXML(buf)
		}
	case TextKind:
		escapeText(buf, n.Data)
	case CommentKind:
		buf.WriteString("<!--")
		buf.WriteString(n.Data)
		buf.WriteString("-->")
	case PIKind:
		buf.WriteString("<?")
		buf.WriteString(n.Name)
		if n.Data != "" {
			buf.WriteByte(' ')
			buf.WriteString(n.Data)
		}
		buf.WriteString("?>")
	case ElementKind:
		buf.WriteByte('<')
		buf.WriteString(n.Name)
		for _, a := range n.Attrs {
			buf.WriteByte(' ')
			buf.WriteString(a.Name)
			buf.WriteString(`="`)
			escapeAttr(buf, a.Value)
			buf.WriteByte('"')
		}
		if len(n.Children) == 0 {
			buf.WriteString("/>")
			return
		}
		buf.WriteByte('>')
		for _, c := range n.Children {
			c.AppendXML(buf)
		}
		buf.WriteString("</")
		buf.WriteString(n.Name)
		buf.WriteByte('>')
	}
}

// XML returns the serialized form of the subtree rooted at n.
func (n *Node) XML() string {
	var buf bytes.Buffer
	n.AppendXML(&buf)
	return buf.String()
}

// XMLBytes returns the serialized form as a byte slice.
func (n *Node) XMLBytes() []byte {
	var buf bytes.Buffer
	n.AppendXML(&buf)
	return buf.Bytes()
}

// Equal reports deep structural equality of two subtrees (kind, name,
// data, attributes, children) ignoring Ord and Parent.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.Name != b.Name || a.Data != b.Data ||
		len(a.Attrs) != len(b.Attrs) || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false
		}
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// Encoder writes XML incrementally. The database generators use it to emit
// documents without materializing a DOM, keeping memory flat even at the
// 1 GB paper scale.
type Encoder struct {
	buf   bytes.Buffer
	stack []string
	err   error
}

// NewEncoder returns an encoder that writes the standard XML declaration.
func NewEncoder() *Encoder {
	e := &Encoder{}
	e.buf.WriteString(`<?xml version="1.0" encoding="UTF-8"?>`)
	e.buf.WriteByte('\n')
	return e
}

// Begin opens <name attr...>. Attrs are passed as alternating name, value
// strings for brevity at the hundreds of call sites in the generators.
func (e *Encoder) Begin(name string, attrs ...string) *Encoder {
	if len(attrs)%2 != 0 {
		e.fail("odd attribute list for <" + name + ">")
		return e
	}
	e.buf.WriteByte('<')
	e.buf.WriteString(name)
	for i := 0; i < len(attrs); i += 2 {
		e.buf.WriteByte(' ')
		e.buf.WriteString(attrs[i])
		e.buf.WriteString(`="`)
		escapeAttr(&e.buf, attrs[i+1])
		e.buf.WriteByte('"')
	}
	e.buf.WriteByte('>')
	e.stack = append(e.stack, name)
	return e
}

// Text appends escaped character data.
func (e *Encoder) Text(s string) *Encoder {
	escapeText(&e.buf, s)
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
	e.buf.WriteString("</")
	e.buf.WriteString(name)
	e.buf.WriteByte('>')
	return e
}

// Leaf writes <name>text</name> in one call (or <name/> for empty text).
func (e *Encoder) Leaf(name, text string, attrs ...string) *Encoder {
	if text == "" && len(attrs) == 0 {
		e.buf.WriteByte('<')
		e.buf.WriteString(name)
		e.buf.WriteString("/>")
		return e
	}
	e.Begin(name, attrs...)
	e.Text(text)
	return e.End()
}

// Empty writes a self-closing <name attr.../> element.
func (e *Encoder) Empty(name string, attrs ...string) *Encoder {
	if len(attrs)%2 != 0 {
		e.fail("odd attribute list for <" + name + "/>")
		return e
	}
	e.buf.WriteByte('<')
	e.buf.WriteString(name)
	for i := 0; i < len(attrs); i += 2 {
		e.buf.WriteByte(' ')
		e.buf.WriteString(attrs[i])
		e.buf.WriteString(`="`)
		escapeAttr(&e.buf, attrs[i+1])
		e.buf.WriteByte('"')
	}
	e.buf.WriteString("/>")
	return e
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
