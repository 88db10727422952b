package xmldom

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// A Record is a binary DOM document (see build.go for the layout) opened
// for navigation in place: no node of it is ever decoded.
//
// OpenRecord makes one pass over the bytes that checks them whole (magic,
// varints, string overruns, name-index range, counts against the input
// size, nesting depth, trailing bytes) and notes,
// per node in document order, where it starts, where its subtree ends,
// which node is its parent and, for an element, its name index, in a
// table of exactly as many entries as the record has nodes. After that pass the bytes are trusted: the
// accessors below re-read varints without checking them again, and every
// name, attribute and text they return is a sub-slice of the bytes handed
// to OpenRecord, which the caller must leave unmodified while the Record
// or any Ref of it is in use.
type Record struct {
	data  []byte
	names []int32   // where each entry of the name dictionary starts
	nodes []recNode // indexed by ord
}

// recNode locates one node: off is the position of its kind byte, end the
// ord one past the last node of its subtree (so its descendants are the
// ords in (ord, end), and end is its next sibling when its parent's
// subtree reaches further), parent the ord of its parent or -1, and name
// an element's name index or -1 for a node of another kind.
type recNode struct {
	off, end, parent, name int32
}

// Ref is one node of an opened record: the record and the node's position
// in document order. It is a comparable value; two Refs are the same node
// exactly when they are equal.
type Ref struct {
	rec *Record
	ord int32
}

// OpenRecord validates data as a binary DOM document and returns it ready
// for navigation. It allocates a fixed number of objects however many
// nodes the record has.
func OpenRecord(data []byte) (*Record, error) {
	if len(data) < len(binMagic) || string(data[:len(binMagic)]) != string(binMagic) {
		return nil, openErr(0, "not a binary DOM document")
	}
	if len(data) > math.MaxInt32 {
		return nil, openErr(0, "record too large")
	}
	pos := len(binMagic)
	nameCount, pos := uvarintAt(data, pos)
	if pos < 0 {
		return nil, openErr(len(binMagic), "bad varint")
	}
	if nameCount > uint64(len(data)) { // each name costs at least one byte
		return nil, openErr(pos, "name count exceeds input size")
	}
	rec := &Record{data: data, names: make([]int32, nameCount)}
	for i := range rec.names {
		rec.names[i] = int32(pos)
		if pos = skipString(data, pos); pos < 0 {
			return nil, openErr(int(rec.names[i]), "bad name")
		}
	}
	// The pass fills a scratch table, since how many nodes the record
	// holds is known only at its end; the record gets a copy at exactly
	// that length.
	var nodes []recNode
	select {
	case nodes = <-scratchTables:
	default:
	}
	defer func() {
		if cap(nodes) <= maxScratchNodes {
			select {
			case scratchTables <- nodes[:0]:
			default:
			}
		}
	}()

	// open holds the containers whose children are still being read.
	type frame struct {
		ord  int32
		left uint64 // children not yet read
	}
	var openBuf [32]frame
	open := openBuf[:0]
	parent := int32(-1)
	for {
		if len(open) > maxBinaryDepth {
			return nil, openErr(pos, "nesting too deep")
		}
		if pos >= len(data) {
			return nil, openErr(pos, "truncated node")
		}
		start := pos
		ord := int32(len(nodes))
		nodes = append(nodes, recNode{off: int32(pos), end: ord + 1, parent: parent, name: -1})
		kind := Kind(data[pos])
		pos++
		var children, v uint64
		switch kind {
		case ElementKind:
			if v, pos = uvarintAt(data, pos); pos < 0 || v >= nameCount {
				return nil, openErr(start, "bad element name index")
			}
			nodes[ord].name = int32(v)
			if v, pos = uvarintAt(data, pos); pos < 0 || v > uint64(len(data)) { // each attribute costs >= 2 bytes
				return nil, openErr(start, "bad attribute count")
			}
			for i := uint64(0); i < 2*v; i++ {
				if pos = skipString(data, pos); pos < 0 {
					return nil, openErr(start, "bad attribute")
				}
			}
			if children, pos = uvarintAt(data, pos); pos < 0 || children > uint64(len(data)) { // a child costs at least one byte
				return nil, openErr(start, "bad child count")
			}
		case TextKind, CommentKind:
			if pos = skipString(data, pos); pos < 0 {
				return nil, openErr(start, "bad character data")
			}
		case PIKind:
			if v, pos = uvarintAt(data, pos); pos < 0 || v >= nameCount {
				return nil, openErr(start, "bad PI name index")
			}
			if pos = skipString(data, pos); pos < 0 {
				return nil, openErr(start, "bad PI data")
			}
		case DocumentKind:
			if children, pos = uvarintAt(data, pos); pos < 0 || children > uint64(len(data)) {
				return nil, openErr(start, "bad child count")
			}
		default:
			return nil, openErr(start, "unknown node kind")
		}
		if children > 0 {
			open = append(open, frame{ord: ord, left: children})
			parent = ord
			continue
		}
		// The node is complete; so is every container it was the last
		// child of.
		for len(open) > 0 {
			top := &open[len(open)-1]
			if top.left--; top.left > 0 {
				break
			}
			nodes[top.ord].end = int32(len(nodes))
			open = open[:len(open)-1]
		}
		if len(open) == 0 {
			break
		}
		parent = open[len(open)-1].ord
	}
	if pos != len(data) {
		return nil, openErr(pos, "trailing bytes")
	}
	rec.nodes = make([]recNode, len(nodes))
	copy(rec.nodes, nodes)
	return rec, nil
}

// scratchTables holds the node tables OpenRecord fills: an open takes one
// if there is one and gives it back, and a table grown past
// maxScratchNodes entries is dropped rather than kept. Four covers the
// opens the benchmark's clients run at once; an open beyond them fills a
// table of its own. It is a channel, not a sync.Pool, because a pool
// drops its items at garbage collection (and at random under the race
// detector), and an open's allocation count is pinned.
var scratchTables = make(chan []recNode, 4)

const maxScratchNodes = 1 << 20

// maxBinaryDepth bounds the nesting of a record OpenRecord accepts.
const maxBinaryDepth = 4096

func openErr(pos int, msg string) error {
	return fmt.Errorf("xmldom: binary open at %d: %s", pos, msg)
}

// uvarintAt reads a varint at pos and returns it with the position after
// it, or a negative position when the varint is cut short or overlong.
func uvarintAt(data []byte, pos int) (uint64, int) {
	// One byte holds every name index and nearly every length and count.
	if pos < len(data) && data[pos] < 0x80 {
		return uint64(data[pos]), pos + 1
	}
	v, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return 0, -1
	}
	return v, pos + n
}

// skipString steps over a length-prefixed string at pos; the result is
// negative when it overruns the input.
func skipString(data []byte, pos int) int {
	l, pos := uvarintAt(data, pos)
	// Compare in uint64 space: a hostile length can overflow int.
	if pos < 0 || l > uint64(len(data)-pos) {
		return -1
	}
	return pos + int(l)
}

// Len returns the number of nodes in the record.
func (r *Record) Len() int { return len(r.nodes) }

// Footprint returns the bytes the record holds: its binary DOM, its node
// table and its name dictionary.
func (r *Record) Footprint() int64 {
	return int64(unsafe.Sizeof(*r)) + int64(len(r.data)) +
		int64(len(r.nodes))*int64(unsafe.Sizeof(recNode{})) + int64(len(r.names))*int64(unsafe.Sizeof(int32(0)))
}

// Bytes returns the binary DOM the record navigates. For a record
// ParseRecord wrote it is the record's own buffer, valid until the record
// is parsed into again.
func (r *Record) Bytes() []byte { return r.data }

// Root returns the record's root node (ord 0).
func (r *Record) Root() Ref { return Ref{r, 0} }

// Element returns the root's first child element: the document element
// of a record ParseRecord wrote, or the zero Ref when it has none.
func (r *Record) Element() Ref { return r.Root().Child("") }

// At returns the node at position ord of document order,
// 0 <= ord < Len().
func (r *Record) At(ord int32) Ref { return Ref{r, ord} }

// name returns entry i of the name dictionary.
func (r *Record) name(i int) []byte {
	t := trusted{r.data, int(r.names[i])}
	return t.bytes()
}

// NameIndexes appends to dst every position of name in the record's name
// dictionary: none when no element or PI bears it, more than one when a
// hostile record lists it twice.
func (r *Record) NameIndexes(dst []int32, name string) []int32 {
	for i, off := range r.names {
		// Most entries differ in length, read from a one-byte varint.
		if n := r.data[off]; n < 0x80 && int(n) != len(name) {
			continue
		}
		if string(r.name(i)) == name {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// trusted is a reader over bytes OpenRecord has validated.
type trusted struct {
	data []byte
	pos  int
}

func (t *trusted) uvarint() int {
	// One-byte varints (every name index and nearly every length and
	// count) stay inline; the general decoder is a call.
	if b := t.data[t.pos]; b < 0x80 {
		t.pos++
		return int(b)
	}
	return t.uvarintLong()
}

func (t *trusted) uvarintLong() int {
	v, n := binary.Uvarint(t.data[t.pos:])
	t.pos += n
	return int(v)
}

func (t *trusted) bytes() []byte {
	l := t.uvarint()
	b := t.data[t.pos : t.pos+l : t.pos+l]
	t.pos += l
	return b
}

// body returns a reader positioned just past x's kind byte.
func (x Ref) body() trusted {
	return trusted{x.rec.data, int(x.rec.nodes[x.ord].off) + 1}
}

// Record returns the record x is a node of.
func (x Ref) Record() *Record { return x.rec }

// Ord returns x's position in the record's document order (0 = root).
func (x Ref) Ord() int32 { return x.ord }

// End returns the ord one past x's subtree: x's descendants are exactly
// the nodes At(Ord()+1) .. At(End()-1), in document order.
func (x Ref) End() int32 { return x.rec.nodes[x.ord].end }

// Kind returns the node's kind.
func (x Ref) Kind() Kind { return Kind(x.rec.data[x.rec.nodes[x.ord].off]) }

// Name returns the element name or PI target; nil for other kinds.
func (x Ref) Name() []byte {
	if k := x.Kind(); k != ElementKind && k != PIKind {
		return nil
	}
	t := x.body()
	return x.rec.name(t.uvarint())
}

// NameIndex returns the position of an element's name in the record's
// name dictionary, or -1 for a node of another kind. A hostile record may
// list one name twice, so an element bears a name exactly when its index
// is one of those NameIndexes returns for the name.
func (x Ref) NameIndex() int32 { return x.rec.nodes[x.ord].name }

// Data returns the content of a text, comment or PI node; nil for other
// kinds.
func (x Ref) Data() []byte {
	t := x.body()
	switch x.Kind() {
	case PIKind:
		t.uvarint()
		fallthrough
	case TextKind, CommentKind:
		return t.bytes()
	}
	return nil
}

// Parent returns x's parent; ok is false at the record's root.
func (x Ref) Parent() (p Ref, ok bool) {
	if po := x.rec.nodes[x.ord].parent; po >= 0 {
		return Ref{x.rec, po}, true
	}
	return Ref{}, false
}

// FirstChild returns x's first child node of any kind.
func (x Ref) FirstChild() (c Ref, ok bool) {
	if x.rec.nodes[x.ord].end > x.ord+1 {
		return Ref{x.rec, x.ord + 1}, true
	}
	return Ref{}, false
}

// NextSibling returns the node after x among its parent's children.
func (x Ref) NextSibling() (s Ref, ok bool) {
	n := x.rec.nodes[x.ord]
	if n.parent >= 0 && n.end < x.rec.nodes[n.parent].end {
		return Ref{x.rec, n.end}, true
	}
	return Ref{}, false
}

// Child returns x's first child element named name (any element for an
// empty name), or the zero Ref when it has none. The zero Ref has no
// children, so a path through an absent element ends in the zero Ref.
func (x Ref) Child(name string) Ref {
	if x.IsZero() {
		return Ref{}
	}
	c, ok := x.FirstChild()
	return c.named(name, ok)
}

// Sibling returns the next sibling element of x named name, or the zero
// Ref: with Child, a walk over x's parent's child elements of that name.
func (x Ref) Sibling(name string) Ref {
	s, ok := x.NextSibling()
	return s.named(name, ok)
}

// named returns the first element named name from x on among its
// siblings; ok says whether x is a node at all.
func (x Ref) named(name string, ok bool) Ref {
	for ; ok; x, ok = x.NextSibling() {
		if x.Kind() == ElementKind && (name == "" || string(x.Name()) == name) {
			return x
		}
	}
	return Ref{}
}

// IsZero reports whether x is the zero Ref, which is no node.
func (x Ref) IsZero() bool { return x.rec == nil }

// AttrIter walks an element's attributes in stored order.
type AttrIter struct {
	t    trusted
	left int
}

// Attrs returns an iterator over x's attributes (empty unless x is an
// element).
func (x Ref) Attrs() AttrIter {
	if x.Kind() != ElementKind {
		return AttrIter{}
	}
	t := x.body()
	t.uvarint() // name
	return AttrIter{left: t.uvarint(), t: t}
}

// Next returns the next attribute; ok is false when none is left.
func (it *AttrIter) Next() (name, value []byte, ok bool) {
	if it.left == 0 {
		return nil, nil, false
	}
	it.left--
	return it.t.bytes(), it.t.bytes(), true
}

// Attr returns the value of the named attribute and whether it exists.
func (x Ref) Attr(name string) ([]byte, bool) {
	for it := x.Attrs(); ; {
		n, v, ok := it.Next()
		if !ok {
			return nil, false
		}
		if string(n) == name {
			return v, true
		}
	}
}

// AppendText appends x's string value — the character data of every text
// node in its subtree, in document order — to dst.
func (x Ref) AppendText(dst []byte) []byte {
	for o, end := x.ord, x.End(); o < end; o++ {
		if d := (Ref{x.rec, o}); d.Kind() == TextKind {
			dst = append(dst, d.Data()...)
		}
	}
	return dst
}

// Text returns x's string value. When the subtree holds a single text
// node — the leaf elements queries compare and return — the result is
// that node's bytes inside the record, not a copy.
func (x Ref) Text() []byte {
	var one []byte
	for o, end := x.ord, x.End(); o < end; o++ {
		d := Ref{x.rec, o}
		if d.Kind() != TextKind {
			continue
		}
		if one != nil {
			return x.AppendText(make([]byte, 0, 4*len(one)))
		}
		one = d.Data()
	}
	return one
}

// HasMixedContent reports whether x directly contains both non-whitespace
// text and child elements: the content model relational mappings cannot
// represent (paper §3.1.3 item 3).
func (x Ref) HasMixedContent() bool {
	hasText, hasElem := false, false
	for c, ok := x.FirstChild(); ok; c, ok = c.NextSibling() {
		hasText = hasText || c.Kind() == TextKind && len(bytes.TrimSpace(c.Data())) > 0
		hasElem = hasElem || c.Kind() == ElementKind
	}
	return hasText && hasElem
}

// AppendXML serializes the subtree rooted at x into buf: an element with
// no children as <name/>, attribute values double-quoted, comments and
// PIs as stored. For a record ParseRecord wrote, parsing what it writes
// gives the same record back.
func (x Ref) AppendXML(buf *bytes.Buffer) {
	switch x.Kind() {
	case DocumentKind:
		x.appendChildrenXML(buf)
	case TextKind:
		escapeText(buf, x.Data())
	case CommentKind:
		buf.WriteString("<!--")
		buf.Write(x.Data())
		buf.WriteString("-->")
	case PIKind:
		buf.WriteString("<?")
		buf.Write(x.Name())
		if d := x.Data(); len(d) > 0 {
			buf.WriteByte(' ')
			buf.Write(d)
		}
		buf.WriteString("?>")
	case ElementKind:
		name := x.Name()
		buf.WriteByte('<')
		buf.Write(name)
		for it := x.Attrs(); ; {
			an, av, ok := it.Next()
			if !ok {
				break
			}
			buf.WriteByte(' ')
			buf.Write(an)
			buf.WriteString(`="`)
			escapeAttr(buf, av)
			buf.WriteByte('"')
		}
		if _, ok := x.FirstChild(); !ok {
			buf.WriteString("/>")
			return
		}
		buf.WriteByte('>')
		x.appendChildrenXML(buf)
		buf.WriteString("</")
		buf.Write(name)
		buf.WriteByte('>')
	}
}

func (x Ref) appendChildrenXML(buf *bytes.Buffer) {
	for c, ok := x.FirstChild(); ok; c, ok = c.NextSibling() {
		c.AppendXML(buf)
	}
}

// XML returns the serialized form of the subtree rooted at x.
func (x Ref) XML() string {
	var buf bytes.Buffer
	x.AppendXML(&buf)
	return buf.String()
}
