package xmldom

import (
	"encoding/binary"
	"fmt"
)

// Binary DOM serialization: the persistent-DOM page format the native
// engine stores instead of raw XML. Decoding rebuilds the node tree
// without tokenizing, escaping or well-formedness work, the way X-Hive
// paged in persistent DOM nodes rather than re-parsing documents.
//
// Layout (all integers varint-encoded):
//
//	magic "XDM1"
//	nameCount, then each name (len, bytes)   — element/PI name dictionary
//	node := kind
//	        ElementKind:  nameIdx, nattrs, {attrName(len,bytes), value(len,bytes)}, nchildren, children
//	        TextKind:     data(len, bytes)
//	        CommentKind:  data(len, bytes)
//	        PIKind:       nameIdx, data(len, bytes)
//	        DocumentKind: nchildren, children
//
// Document order is assigned during decode in one pass.

var binMagic = []byte("XDM1")

// EncodeBinary serializes the subtree rooted at n into the persistent DOM
// format.
func EncodeBinary(n *Node) []byte {
	names := map[string]int{}
	var nameList []string
	var collect func(*Node)
	collect = func(nd *Node) {
		if nd.Kind == ElementKind || nd.Kind == PIKind {
			if _, ok := names[nd.Name]; !ok {
				names[nd.Name] = len(nameList)
				nameList = append(nameList, nd.Name)
			}
		}
		for _, c := range nd.Children {
			collect(c)
		}
	}
	collect(n)

	buf := make([]byte, 0, 1024)
	buf = append(buf, binMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(nameList)))
	for _, name := range nameList {
		buf = appendString(buf, name)
	}
	var enc func([]byte, *Node) []byte
	enc = func(b []byte, nd *Node) []byte {
		b = append(b, byte(nd.Kind))
		switch nd.Kind {
		case ElementKind:
			b = binary.AppendUvarint(b, uint64(names[nd.Name]))
			b = binary.AppendUvarint(b, uint64(len(nd.Attrs)))
			for _, a := range nd.Attrs {
				b = appendString(b, a.Name)
				b = appendString(b, a.Value)
			}
			b = binary.AppendUvarint(b, uint64(len(nd.Children)))
			for _, c := range nd.Children {
				b = enc(b, c)
			}
		case TextKind, CommentKind:
			b = appendString(b, nd.Data)
		case PIKind:
			b = binary.AppendUvarint(b, uint64(names[nd.Name]))
			b = appendString(b, nd.Data)
		case DocumentKind:
			b = binary.AppendUvarint(b, uint64(len(nd.Children)))
			for _, c := range nd.Children {
				b = enc(b, c)
			}
		}
		return b
	}
	return enc(buf, n)
}

func appendString[S string | []byte](b []byte, s S) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
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
func DecodeBinary(data []byte) (*Node, error) {
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

const maxBinaryDepth = 4096

func (r *binReader) node(names []string, depth int) (*Node, error) {
	if depth > maxBinaryDepth {
		return nil, r.errf("nesting deeper than %d", maxBinaryDepth)
	}
	if r.pos >= len(r.data) {
		return nil, r.errf("truncated node")
	}
	kind := Kind(r.data[r.pos])
	r.pos++
	n := &Node{Kind: kind, Ord: r.ord}
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
			n.Attrs = make([]Attr, nattrs)
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

func (r *binReader) children(parent *Node, names []string, depth int) error {
	count, err := r.uvarint()
	if err != nil {
		return err
	}
	if count > uint64(len(r.data)) { // a child costs at least one byte
		return r.errf("child count %d exceeds input size", count)
	}
	if count > 0 {
		parent.Children = make([]*Node, 0, count)
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
