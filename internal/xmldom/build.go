package xmldom

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// The binary DOM: the persistent-DOM page format the native engine
// stores instead of raw XML, the way X-Hive paged in persistent DOM nodes
// rather than re-parsing documents. A record is one document in it; its
// nodes are written in document order, each with its child count, so
// OpenRecord recovers the tree in one pass without tokenizing, escaping
// or well-formedness work.
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
// The dictionary lists each name once, in the order of its first use in
// document order.

var binMagic = []byte("XDM1")

func appendString[S string | []byte](b []byte, s S) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// ParseRecord parses a complete XML document into rec: its bytes become
// the document's binary DOM, and its node table what OpenRecord would
// make of them. Both are written into rec's buffers, grown as needed, so
// a caller that parses document after document into one Record stops
// allocating once they are large enough; every Ref of rec's previous
// document is invalid from the call on.
//
// Whitespace is kept as text only when it is part of a run that holds
// something else: a run that is all whitespace, Unicode spaces included,
// is dropped, which matches how the benchmark's data generators emit
// documents (no indentation). Line endings are not normalized, a DOCTYPE
// is skipped, and so is a PI with target xml beside the root element (the
// XML declaration). Text with no reference or CDATA section, names,
// comments and PI data stay slices of data until the record is written,
// so a parse allocates nothing per node.
//
// ParseRecord fails on a malformed document with a *SyntaxError, and on a
// record too large for a node table's 32-bit offsets; rec then holds no
// document.
func ParseRecord(rec *Record, data []byte) error {
	p := getParser(data)
	err := p.parseDocument()
	if err == nil {
		err = p.b.emit(rec)
	}
	if err != nil {
		rec.data, rec.names, rec.nodes = rec.data[:0], rec.names[:0], rec.nodes[:0]
	}
	p.put()
	return err
}

// RootName returns the name of the element ParseRecord would make data's
// root, read by ParseRecord's own rules for what may precede it
// (whitespace, comments, processing instructions, a DOCTYPE), so a '<'
// inside one of those is not mistaken for it. Only the prolog is read: ok
// is false when it is malformed or no element follows it, and a true ok
// says nothing of the rest of the document. The name is a slice of data.
func RootName(data []byte) (name []byte, ok bool) {
	p := getParser(data)
	p.b.add(DocumentKind)
	if p.parseMisc() == nil && !p.eof() {
		p.pos++ // '<'
		name, _ = p.scanName()
	}
	p.put()
	return name, name != nil
}

// builder is the record a parse builds: its nodes in document order with
// what each holds, written out as the binary DOM only at the end, when
// every child count is known.
type builder struct {
	tab []bnode // the nodes, by ord
	cur int32   // the container the next node is a child of
	// The name dictionary: each name's index in this document by the
	// name, and the names in index order. seen carries over documents,
	// so a name is allocated once, not once a document; gen tells this
	// document's entries from older ones.
	seen  map[string]*nameSlot
	gen   uint32
	names [][]byte
	// hot answers most lookups before the map: the slot a name's length
	// and last byte pick holds the index + 1 of the name that last took
	// it in this document.
	hot   [64]int32
	attrs [][]byte // name, value, name, value, ... of every element
	// buf holds the text and values with a reference or CDATA section,
	// copied out of the parser's buffer; the rest are slices of the input.
	buf []byte
}

// bnode is one node of the record being built: its entry of the node
// table but for off, which emit works out, and what emit writes.
type bnode struct {
	recNode
	kind  Kind
	name  int32  // element, PI: its name's index in the dictionary
	kids  int32  // element, document: how many children it has
	attr  int32  // element: its first attribute's name in attrs
	nattr int32  // element: how many attributes it has
	data  []byte // text, comment, PI
}

type nameSlot struct {
	gen uint32
	i   int32
}

// add appends a node of kind as the last child of cur and returns its ord.
func (b *builder) add(kind Kind) int32 {
	ord := int32(len(b.tab))
	parent := int32(-1)
	if ord > 0 {
		parent = b.cur
		b.tab[parent].kids++
	}
	b.tab = append(b.tab, bnode{recNode: recNode{end: ord + 1, parent: parent}, kind: kind})
	return ord
}

// close ends the container ord: its subtree is every node added since,
// and the next node is its parent's child.
func (b *builder) close(ord int32) {
	b.tab[ord].end = int32(len(b.tab))
	b.cur = b.tab[ord].parent
}

// element adds an element named name.
func (b *builder) element(name []byte) int32 {
	ord := b.add(ElementKind)
	n := &b.tab[ord]
	n.name, n.attr = b.nameIndex(name), int32(len(b.attrs))
	return ord
}

// attr gives the element added last an attribute, or reports false when
// it already has one of that name. A buffered value is copied.
func (b *builder) attr(name, value []byte, buffered bool) bool {
	n := &b.tab[len(b.tab)-1]
	for i := n.attr; i < int32(len(b.attrs)); i += 2 {
		if string(b.attrs[i]) == string(name) {
			return false
		}
	}
	b.attrs = append(b.attrs, name, b.keep(value, buffered))
	n.nattr++
	return true
}

// leaf adds a text or comment node holding data.
func (b *builder) leaf(kind Kind, data []byte) {
	b.tab[b.add(kind)].data = data
}

// pi adds a processing instruction.
func (b *builder) pi(target, data []byte) {
	ord := b.add(PIKind)
	b.tab[ord].name, b.tab[ord].data = b.nameIndex(target), data
}

// keep returns v as it stays valid until emit: a buffered v, which lies
// in the parser's buffer, copied to b.buf.
func (b *builder) keep(v []byte, buffered bool) []byte {
	if !buffered {
		return v
	}
	return kept(b, v)
}

// kept copies v to b.buf and returns the copy.
func kept[S string | []byte](b *builder, v S) []byte {
	at := len(b.buf)
	b.buf = append(b.buf, v...)
	return b.buf[at:len(b.buf):len(b.buf)]
}

// nameIndex returns name's index in the document's dictionary, adding it
// at the end on its first use.
func (b *builder) nameIndex(name []byte) int32 {
	h := (len(name)*7 + int(name[len(name)-1])) % len(b.hot)
	if i := b.hot[h] - 1; i >= 0 && string(b.names[i]) == string(name) {
		return i
	}
	i := b.lookup(name)
	b.hot[h] = i + 1
	return i
}

// lookup is nameIndex by the map.
func (b *builder) lookup(name []byte) int32 {
	s := b.seen[string(name)]
	if s != nil && s.gen == b.gen {
		return s.i
	}
	if s == nil {
		if b.seen == nil {
			b.seen = map[string]*nameSlot{}
		}
		s = &nameSlot{}
		b.seen[string(name)] = s
	}
	s.gen, s.i = b.gen, int32(len(b.names))
	b.names = append(b.names, name)
	return s.i
}

// emit writes the record built into rec: the binary DOM, with each node's
// offset noted in the node table.
func (b *builder) emit(rec *Record) error {
	out := append(rec.data[:0], binMagic...)
	out = binary.AppendUvarint(out, uint64(len(b.names)))
	rec.names = rec.names[:0]
	for _, name := range b.names {
		rec.names = append(rec.names, int32(len(out)))
		out = appendString(out, name)
	}
	rec.nodes = slices.Grow(rec.nodes[:0], len(b.tab))
	for ord := range b.tab {
		n := &b.tab[ord]
		name := int32(-1)
		if n.kind == ElementKind {
			name = n.name
		}
		rec.nodes = append(rec.nodes, recNode{int32(len(out)), n.end, n.parent, name})
		out = append(out, byte(n.kind))
		switch n.kind {
		case ElementKind:
			out = binary.AppendUvarint(out, uint64(n.name))
			out = binary.AppendUvarint(out, uint64(n.nattr))
			for _, a := range b.attrs[n.attr : n.attr+2*n.nattr] {
				out = appendString(out, a)
			}
			out = binary.AppendUvarint(out, uint64(n.kids))
		case TextKind, CommentKind:
			out = appendString(out, n.data)
		case PIKind:
			out = binary.AppendUvarint(out, uint64(n.name))
			out = appendString(out, n.data)
		case DocumentKind:
			out = binary.AppendUvarint(out, uint64(n.kids))
		}
	}
	rec.data = out
	if len(out) > math.MaxInt32 {
		return fmt.Errorf("xmldom: record of %d bytes too large", len(out))
	}
	return nil
}

// maxBuilt bounds the tables a builder keeps for the next parse: a
// document with more nodes leaves them to the collector.
const maxBuilt = 1 << 17

// maxNames bounds the names a builder remembers across documents.
const maxNames = 1024

// release drops what the builder points at in the input and starts a new
// generation of names.
func (b *builder) release() {
	if cap(b.tab) > maxBuilt {
		b.tab, b.attrs, b.buf = nil, nil, nil
	}
	clear(b.tab)
	clear(b.names)
	clear(b.attrs)
	b.tab, b.names, b.attrs, b.buf = b.tab[:0], b.names[:0], b.attrs[:0], b.buf[:0]
	b.cur = 0
	clear(b.hot[:])
	if b.gen++; b.gen == 0 || len(b.seen) > maxNames {
		clear(b.seen)
	}
}

// A Writer builds a record element by element, the way ParseRecord builds
// one from text: what an XQuery element constructor makes, with no tree
// in between. The record's root is the first element begun. Names, text
// and values handed to it are copied; a subtree Copy takes is read from
// its record when Record is called, so that record must stay unmodified
// until then.
type Writer struct {
	b   builder
	out Record // the record emitted, before Record copies it out
}

// writers holds a few idle Writers, as scratchTables holds node tables.
var writers = make(chan *Writer, 4)

// NewWriter returns an empty Writer. Record or Release hands it back.
func NewWriter() *Writer {
	select {
	case w := <-writers:
		return w
	default:
		return new(Writer)
	}
}

// Begin starts an element, the root or a child of the element open.
func (w *Writer) Begin(name string) {
	w.b.cur = w.b.element(kept(&w.b, name))
}

// Attr gives the element just begun an attribute, replacing the value of
// one it already has of that name.
func (w *Writer) Attr(name string, value []byte) {
	b := &w.b
	n, v := &b.tab[b.cur], kept(b, value)
	for i := n.attr; i < n.attr+2*n.nattr; i += 2 {
		if string(b.attrs[i]) == name {
			b.attrs[i+1] = v
			return
		}
	}
	b.attrs = append(b.attrs, kept(b, name), v)
	n.nattr++
}

// Text adds a text node holding data; empty data adds none.
func (w *Writer) Text(data []byte) {
	if len(data) > 0 {
		w.b.leaf(TextKind, kept(&w.b, data))
	}
}

// End closes the element open.
func (w *Writer) End() { w.b.close(w.b.cur) }

// Copy adds the subtree rooted at x, node for node.
func (w *Writer) Copy(x Ref) {
	b := &w.b
	switch k := x.Kind(); k {
	case ElementKind, DocumentKind:
		var ord int32
		if k == ElementKind {
			ord = b.element(x.Name())
			for it := x.Attrs(); ; b.tab[ord].nattr++ {
				n, v, ok := it.Next()
				if !ok {
					break
				}
				b.attrs = append(b.attrs, n, v)
			}
		} else {
			ord = b.add(DocumentKind)
		}
		b.cur = ord
		for c, ok := x.FirstChild(); ok; c, ok = c.NextSibling() {
			w.Copy(c)
		}
		b.close(ord)
	case PIKind:
		b.pi(x.Name(), x.Data())
	default:
		b.leaf(k, x.Data())
	}
}

// Record returns the record built, opened, and hands the Writer back.
func (w *Writer) Record() (*Record, error) {
	err := w.b.emit(&w.out)
	var rec *Record
	if err == nil {
		rec = &Record{data: slices.Clone(w.out.data), names: slices.Clone(w.out.names), nodes: slices.Clone(w.out.nodes)}
	}
	if cap(w.out.nodes) > maxBuilt {
		w.out = Record{}
	}
	w.Release()
	return rec, err
}

// Release drops what was built and hands the Writer back.
func (w *Writer) Release() {
	w.b.release()
	select {
	case writers <- w:
	default:
	}
}
