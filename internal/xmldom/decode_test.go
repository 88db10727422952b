package xmldom

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
)

// DecodeBinary is the reference decoder FuzzCursor holds OpenRecord and
// Ref to: a separate reading of the binary DOM layout (build.go) that
// rebuilds every node as a DecodedNode, with every check OpenRecord makes.

// DecodedNode is one node of a tree DecodeBinary rebuilt. The fields used
// depend on Kind; Ord is the node's position in document order.
type DecodedNode struct {
	Kind     Kind
	Ord      int32
	Name     string // element name or PI target
	Data     string // text, comment or PI content
	Attrs    []DecodedAttr
	Children []*DecodedNode
	Parent   *DecodedNode
}

// DecodedAttr is a name="value" attribute of a DecodedNode.
type DecodedAttr struct {
	Name  string
	Value string
}

// Attr returns the value of the first attribute named name.
func (n *DecodedNode) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// Text returns the character data of every text node under n, in order.
func (n *DecodedNode) Text() string {
	if n.Kind == TextKind {
		return n.Data
	}
	var b strings.Builder
	for _, c := range n.Children {
		b.WriteString(c.Text())
	}
	return b.String()
}

// Count returns the number of nodes in the subtree rooted at n.
func (n *DecodedNode) Count() int {
	c := 1
	for _, k := range n.Children {
		c += k.Count()
	}
	return c
}

// XMLBytes serializes the subtree rooted at n by the rules Ref.AppendXML
// states.
func (n *DecodedNode) XMLBytes() []byte {
	var buf bytes.Buffer
	n.appendXML(&buf)
	return buf.Bytes()
}

func (n *DecodedNode) appendXML(buf *bytes.Buffer) {
	switch n.Kind {
	case TextKind:
		escapeText(buf, n.Data)
	case CommentKind:
		buf.WriteString("<!--" + n.Data + "-->")
	case PIKind:
		buf.WriteString("<?" + n.Name)
		if n.Data != "" {
			buf.WriteString(" " + n.Data)
		}
		buf.WriteString("?>")
	case ElementKind:
		buf.WriteString("<" + n.Name)
		for _, a := range n.Attrs {
			writeAttr(buf, a.Name, a.Value)
		}
		if len(n.Children) == 0 {
			buf.WriteString("/>")
			return
		}
		buf.WriteByte('>')
		for _, c := range n.Children {
			c.appendXML(buf)
		}
		buf.WriteString("</" + n.Name + ">")
	case DocumentKind:
		for _, c := range n.Children {
			c.appendXML(buf)
		}
	}
}

type binReader struct {
	data []byte
	pos  int
	ord  int32
}

func (r *binReader) errf(format string, args ...any) error {
	return fmt.Errorf("xmldom: binary decode at %d: %s", r.pos, fmt.Sprintf(format, args...))
}

func (r *binReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, r.errf("bad varint")
	}
	r.pos += n
	return v, nil
}

func (r *binReader) str() (string, error) {
	l, err := r.uvarint()
	if err != nil {
		return "", err
	}
	// Compare in uint64 space: a hostile length can overflow int.
	if l > uint64(len(r.data)-r.pos) {
		return "", r.errf("string of %d bytes overruns buffer", l)
	}
	s := string(r.data[r.pos : r.pos+int(l)])
	r.pos += int(l)
	return s, nil
}

// DecodeBinary rebuilds a node tree from the persistent DOM format,
// assigning document order.
func DecodeBinary(data []byte) (*DecodedNode, error) {
	if len(data) < len(binMagic) || string(data[:len(binMagic)]) != string(binMagic) {
		return nil, fmt.Errorf("xmldom: not a binary DOM document")
	}
	r := &binReader{data: data, pos: len(binMagic)}
	nameCount, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nameCount > uint64(len(data)) { // each name costs at least one byte
		return nil, r.errf("name count %d exceeds input size", nameCount)
	}
	names := make([]string, nameCount)
	for i := range names {
		if names[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	node, err := r.node(names, 0)
	if err != nil {
		return nil, err
	}
	if r.pos != len(data) {
		return nil, r.errf("%d trailing bytes", len(data)-r.pos)
	}
	return node, nil
}

func (r *binReader) node(names []string, depth int) (*DecodedNode, error) {
	if depth > maxBinaryDepth {
		return nil, r.errf("nesting deeper than %d", maxBinaryDepth)
	}
	if r.pos >= len(r.data) {
		return nil, r.errf("truncated node")
	}
	kind := Kind(r.data[r.pos])
	r.pos++
	n := &DecodedNode{Kind: kind, Ord: r.ord}
	r.ord++
	var err error
	switch kind {
	case ElementKind:
		nameIdx, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if nameIdx >= uint64(len(names)) {
			return nil, r.errf("name index %d out of range", nameIdx)
		}
		n.Name = names[nameIdx]
		nattrs, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if nattrs > uint64(len(r.data)) { // each attribute costs >= 2 bytes
			return nil, r.errf("attribute count %d exceeds input size", nattrs)
		}
		if nattrs > 0 {
			n.Attrs = make([]DecodedAttr, nattrs)
			for i := range n.Attrs {
				if n.Attrs[i].Name, err = r.str(); err != nil {
					return nil, err
				}
				if n.Attrs[i].Value, err = r.str(); err != nil {
					return nil, err
				}
			}
		}
		if err := r.children(n, names, depth); err != nil {
			return nil, err
		}
	case TextKind, CommentKind:
		if n.Data, err = r.str(); err != nil {
			return nil, err
		}
	case PIKind:
		nameIdx, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if nameIdx >= uint64(len(names)) {
			return nil, r.errf("name index %d out of range", nameIdx)
		}
		n.Name = names[nameIdx]
		if n.Data, err = r.str(); err != nil {
			return nil, err
		}
	case DocumentKind:
		if err := r.children(n, names, depth); err != nil {
			return nil, err
		}
	default:
		return nil, r.errf("unknown node kind %d", kind)
	}
	return n, nil
}

func (r *binReader) children(parent *DecodedNode, names []string, depth int) error {
	count, err := r.uvarint()
	if err != nil {
		return err
	}
	if count > uint64(len(r.data)) { // a child costs at least one byte
		return r.errf("child count %d exceeds input size", count)
	}
	if count > 0 {
		parent.Children = make([]*DecodedNode, 0, count)
	}
	for i := uint64(0); i < count; i++ {
		c, err := r.node(names, depth+1)
		if err != nil {
			return err
		}
		c.Parent = parent
		parent.Children = append(parent.Children, c)
	}
	return nil
}
