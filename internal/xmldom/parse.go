package xmldom

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

// SyntaxError reports a well-formedness violation with a byte offset.
type SyntaxError struct {
	Offset int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xmldom: syntax error at offset %d: %s", e.Offset, e.Msg)
}

// Parse parses a complete XML document and returns its document node with
// document order assigned. Insignificant whitespace between elements is
// kept as text nodes only when it is adjacent to non-whitespace content;
// pure inter-element whitespace is dropped, which matches how the
// benchmark's data generators emit documents (no indentation).
//
// What it allocates per document: one slab of Nodes sized from the
// document's '<' count and one slab the Children slices are carved from,
// each at its exact length; an Attrs slice per element that has
// attributes; and one string per kept text run, attribute value, comment
// and PI — a run with no reference or CDATA section is converted straight
// from data, an all-whitespace one not at all. Names come from a cache
// the parser keeps across calls, so a name is allocated once, not once
// per occurrence.
func Parse(data []byte) (*Node, error) {
	p := parsers.Get().(*parser)
	p.data, p.pos, p.ord = data, 0, 0
	doc, err := p.parseDocument()
	p.release()
	parsers.Put(p)
	if err != nil {
		return nil, err
	}
	return doc, nil
}

// MustParse is Parse that panics on error; for tests and fixtures.
func MustParse(data string) *Node {
	doc, err := Parse([]byte(data))
	if err != nil {
		panic(err)
	}
	return doc
}

var (
	cdataEnd   = []byte("]]>")
	commentEnd = []byte("-->")
	piEnd      = []byte("?>")
)

// parsers holds parser state between calls: the stacks, the scratch
// buffer and the name cache outlive a document, the slabs do not.
var parsers = sync.Pool{New: func() any { return &parser{names: map[string]string{}} }}

// maxNames bounds the name cache; names past it are allocated per use.
const maxNames = 1024

type parser struct {
	data []byte
	pos  int
	ord  int32 // the next node's Ord: nodes are made in document order

	// The document's slabs; the tree owns them once Parse returns.
	nodes []Node
	ptrs  []*Node

	// Reused across documents.
	kids  []*Node           // children of the open elements, innermost last
	atts  []Attr            // attributes of the start tag being read
	buf   []byte            // a text run or value with a reference or CDATA
	names map[string]string // interned names

	// rec is set while the parse builds a record (ParseRecord) instead
	// of a tree: each node read goes to b, and no Node is made.
	rec bool
	b   builder
}

// release drops everything of the document the parser still points at,
// so the pool keeps no tree alive.
func (p *parser) release() {
	clear(p.kids)
	clear(p.atts)
	p.kids, p.atts = p.kids[:0], p.atts[:0]
	p.data, p.nodes, p.ptrs = nil, nil, nil
}

// ahead is how many more '<' the document holds, plus one: what the
// slabs are sized from. An element is one '<' or two, a kept text run
// ends at one, so it bounds the nodes still to come in all but mixed
// content, and a slab that runs out is refilled to it.
func (p *parser) ahead() int { return bytes.Count(p.data[p.pos:], []byte{'<'}) + 1 }

// node returns the next node of the slab, in document order: the first
// call sizes the slab for the whole document.
func (p *parser) node(kind Kind) *Node {
	if len(p.nodes) == 0 {
		p.nodes = make([]Node, p.ahead())
	}
	n := &p.nodes[0]
	p.nodes = p.nodes[1:]
	n.Kind, n.Ord = kind, p.ord
	p.ord++
	return n
}

// adopt makes the nodes pushed since base parent's children, in one slice
// of exactly their number, and pops them.
func (p *parser) adopt(parent *Node, base int) {
	kids := p.kids[base:]
	n := len(kids)
	if n == 0 {
		return
	}
	if len(p.ptrs) < n {
		p.ptrs = make([]*Node, len(p.kids)+p.ahead())
	}
	c := p.ptrs[:n:n]
	p.ptrs = p.ptrs[n:]
	copy(c, kids)
	for _, k := range c {
		k.Parent = parent
	}
	parent.Children = c
	clear(kids)
	p.kids = p.kids[:base]
}

// intern returns b as a string, allocated once per distinct name.
func (p *parser) intern(b []byte) string {
	if s, ok := p.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(p.names) < maxNames {
		p.names[s] = s
	}
	return s
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) eof() bool { return p.pos >= len(p.data) }

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.data[p.pos]
}

func (p *parser) skipSpace() {
	for !p.eof() {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *parser) expect(s string) error {
	if !p.hasPrefix(s) {
		return p.errf("expected %q", s)
	}
	p.pos += len(s)
	return nil
}

// after returns the byte after the one at p.pos, or 0 at the end.
func (p *parser) after() byte {
	if p.pos+1 < len(p.data) {
		return p.data[p.pos+1]
	}
	return 0
}

// hasPrefix compares byte by byte: the markup tests it makes at every '<'
// mostly fail at the first or second byte, sooner than a string compare
// is set up.
func (p *parser) hasPrefix(s string) bool {
	if len(p.data)-p.pos < len(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if p.data[p.pos+i] != s[i] {
			return false
		}
	}
	return true
}

func (p *parser) parseDocument() (*Node, error) {
	var doc *Node
	if p.rec {
		p.b.add(DocumentKind)
	} else {
		doc = p.node(DocumentKind)
	}
	if err := p.parseMisc(); err != nil {
		return nil, err
	}
	if p.eof() {
		return nil, p.errf("document has no root element")
	}
	if err := p.parseElement(); err != nil {
		return nil, err
	}
	if err := p.parseMisc(); err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, p.errf("multiple root elements")
	}
	if p.rec {
		p.b.close(0)
	} else {
		p.adopt(doc, 0)
	}
	return doc, nil
}

// parseMisc reads what may stand beside the root element — whitespace,
// comments, processing instructions and a DOCTYPE — up to an element's
// '<' or the end of input.
func (p *parser) parseMisc() error {
	for {
		p.skipSpace()
		if p.eof() {
			return nil
		}
		var err error
		switch {
		case p.hasPrefix("<?"):
			err = p.parsePI(true)
		case p.hasPrefix("<!--"):
			err = p.parseComment()
		case p.hasPrefix("<!DOCTYPE"):
			err = p.skipDoctype()
		case p.peek() == '<':
			return nil
		default:
			return p.errf("unexpected content %q outside root element", p.peek())
		}
		if err != nil {
			return err
		}
	}
}

// nameBytes classes each byte: nameStart may begin a name, nameChar
// continue one.
var nameBytes = func() (t [256]uint8) {
	for c := range t {
		b := byte(c)
		if b == '_' || b == ':' || b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= 0x80 {
			t[c] = nameStart | nameChar
		} else if b == '-' || b == '.' || b >= '0' && b <= '9' {
			t[c] = nameChar
		}
	}
	return t
}()

const (
	nameStart = 1 << iota
	nameChar
)

func isNameStart(c byte) bool { return nameBytes[c]&nameStart != 0 }

func isNameChar(c byte) bool { return nameBytes[c]&nameChar != 0 }

// scanName reads a name and returns it in place.
func (p *parser) scanName() ([]byte, error) {
	start := p.pos
	if p.eof() || !isNameStart(p.data[p.pos]) {
		return nil, p.errf("expected name")
	}
	p.pos++
	for !p.eof() && isNameChar(p.data[p.pos]) {
		p.pos++
	}
	return p.data[start:p.pos], nil
}

// parseElement parses the element at p.pos, whose '<' the caller has
// seen, and pushes it as a child of the element being read.
func (p *parser) parseElement() error {
	p.pos++ // '<'
	name, err := p.scanName()
	if err != nil {
		return err
	}
	var el *Node
	var ord int32
	if p.rec {
		ord = p.b.element(name)
	} else {
		el = p.node(ElementKind)
		el.Name = p.intern(name)
		p.kids = append(p.kids, el)
	}
	if err := p.parseAttrs(el, name); err != nil {
		return err
	}
	if p.peek() == '/' {
		p.pos++
		return p.expect(">")
	}
	if err := p.expect(">"); err != nil {
		return err
	}
	base := len(p.kids)
	if p.rec {
		p.b.cur = ord
	}
	if err := p.parseContent(name); err != nil {
		return err
	}
	if p.rec {
		p.b.close(ord)
	} else {
		p.adopt(el, base)
	}
	// parseContent consumed "</"; now the name, compared in place, and ">".
	ename, err := p.scanName()
	if err != nil {
		return err
	}
	if string(ename) != string(name) {
		return p.errf("mismatched end tag </%s> for <%s>", ename, name)
	}
	p.skipSpace()
	return p.expect(">")
}

// parseAttrs reads the attributes of the start tag of el, named name, up
// to its '>' or '/' and gives el them in one slice of exactly their
// number; building a record, el is nil and they go to the builder.
func (p *parser) parseAttrs(el *Node, name []byte) error {
	p.atts = p.atts[:0]
	for {
		p.skipSpace()
		if p.eof() {
			return p.errf("unterminated start tag <%s", name)
		}
		c := p.peek()
		if c == '>' || c == '/' {
			break
		}
		aname, err := p.scanName()
		if err != nil {
			return err
		}
		p.skipSpace()
		if err := p.expect("="); err != nil {
			return err
		}
		p.skipSpace()
		aval, buffered, err := p.parseAttValue()
		if err != nil {
			return err
		}
		if p.rec {
			if !p.b.attr(aname, aval, buffered) {
				return p.errf("duplicate attribute %q on <%s>", aname, name)
			}
			continue
		}
		for _, a := range p.atts {
			if a.Name == string(aname) {
				return p.errf("duplicate attribute %q on <%s>", aname, name)
			}
		}
		p.atts = append(p.atts, Attr{p.intern(aname), string(aval)})
	}
	if len(p.atts) > 0 {
		el.Attrs = slices.Clone(p.atts)
		clear(p.atts)
	}
	return nil
}

// parseContent parses the content of the element named name up to and
// including the "</" of its end tag, pushing each child as it is read.
func (p *parser) parseContent(name []byte) error {
	for {
		if err := p.parseText(); err != nil {
			return err
		}
		if p.eof() {
			return p.errf("unterminated element <%s>", name)
		}
		// parseText stopped at a '<'; the byte after it tells the markup.
		var err error
		switch next := p.after(); {
		case next == '/':
			p.pos += 2
			return nil
		case next == '!' && p.hasPrefix("<!--"):
			err = p.parseComment()
		case next == '?':
			err = p.parsePI(false)
		default:
			err = p.parseElement()
		}
		if err != nil {
			return err
		}
	}
}

// parseText reads character data — with its references resolved and its
// CDATA sections' content — up to the next markup that is not a CDATA
// section or the end of input, and pushes it as a text node unless it is
// all whitespace. A run with neither is taken from data as it stands.
func (p *parser) parseText() error {
	seg, buffered := p.pos, false // data[seg:p.pos] is not in buf yet
	lt := -1                      // the next '<' at or after p.pos, or len(data)
	for {
		if lt < p.pos {
			lt = len(p.data)
			if i := bytes.IndexByte(p.data[p.pos:], '<'); i >= 0 {
				lt = p.pos + i
			}
		}
		if i := bytes.IndexByte(p.data[p.pos:lt], '&'); i >= 0 {
			p.pos += i
			p.spill(buffered, seg)
			buffered = true
			if err := p.parseReference(); err != nil {
				return err
			}
			seg = p.pos
			continue
		}
		p.pos = lt
		if p.after() != '!' || !p.hasPrefix("<![CDATA[") {
			break
		}
		p.spill(buffered, seg)
		buffered = true
		p.pos += len("<![CDATA[")
		end := bytes.Index(p.data[p.pos:], cdataEnd)
		if end < 0 {
			return p.errf("unterminated CDATA section")
		}
		p.buf = append(p.buf, p.data[p.pos:p.pos+end]...)
		p.pos += end + len(cdataEnd)
		seg = p.pos
	}
	run := p.data[seg:p.pos]
	if buffered {
		p.buf = append(p.buf, run...)
		run = p.buf
	}
	// A run that opens with a printable ASCII byte is not blank; any other
	// is checked whole, Unicode spaces included.
	if len(run) == 0 || (run[0] <= ' ' || run[0] >= utf8.RuneSelf) && len(bytes.TrimSpace(run)) == 0 {
		return nil // drop pure inter-element whitespace
	}
	if p.rec {
		p.b.leaf(TextKind, p.b.keep(run, buffered))
		return nil
	}
	n := p.node(TextKind)
	n.Data = string(run)
	p.kids = append(p.kids, n)
	return nil
}

// spill moves the pending run data[seg:p.pos] into buf, behind what buf
// holds if the run is already buffered.
func (p *parser) spill(buffered bool, seg int) {
	if !buffered {
		p.buf = p.buf[:0]
	}
	p.buf = append(p.buf, p.data[seg:p.pos]...)
}

// parseAttValue reads a quoted attribute value and returns it with its
// references resolved: in data as it stands, or, buffered, in buf until
// the next value or run is read.
func (p *parser) parseAttValue() (v []byte, buffered bool, err error) {
	if p.eof() || (p.peek() != '"' && p.peek() != '\'') {
		return nil, false, p.errf("attribute value must be quoted")
	}
	quote := p.data[p.pos]
	p.pos++
	seg := p.pos
	for {
		if p.eof() {
			return nil, false, p.errf("unterminated attribute value")
		}
		switch p.data[p.pos] {
		case quote:
			v := p.data[seg:p.pos]
			if buffered {
				p.buf = append(p.buf, v...)
				v = p.buf
			}
			p.pos++
			return v, buffered, nil
		case '<':
			return nil, false, p.errf("'<' in attribute value")
		case '&':
			p.spill(buffered, seg)
			buffered = true
			if err := p.parseReference(); err != nil {
				return nil, false, err
			}
			seg = p.pos
		default:
			p.pos++
		}
	}
}

// parseReference resolves the reference at p.pos onto buf.
func (p *parser) parseReference() error {
	// caller guarantees p.data[p.pos] == '&'
	semi := -1
	for i := p.pos + 1; i < len(p.data) && i < p.pos+12; i++ {
		if p.data[i] == ';' {
			semi = i
			break
		}
	}
	if semi < 0 {
		return p.errf("unterminated entity reference")
	}
	ref := p.data[p.pos+1 : semi]
	p.pos = semi + 1
	switch string(ref) {
	case "lt":
		p.buf = append(p.buf, '<')
	case "gt":
		p.buf = append(p.buf, '>')
	case "amp":
		p.buf = append(p.buf, '&')
	case "quot":
		p.buf = append(p.buf, '"')
	case "apos":
		p.buf = append(p.buf, '\'')
	default:
		if len(ref) == 0 || ref[0] != '#' {
			return p.errf("unknown entity &%s;", ref)
		}
		body, base := ref[1:], 10
		if len(body) > 0 && (body[0] == 'x' || body[0] == 'X') {
			body, base = body[1:], 16
		}
		n, err := strconv.ParseUint(string(body), base, 32)
		if err != nil {
			return p.errf("bad character reference &%s;", ref)
		}
		p.buf = utf8.AppendRune(p.buf, rune(n))
	}
	return nil
}

func (p *parser) parseComment() error {
	if err := p.expect("<!--"); err != nil {
		return err
	}
	end := bytes.Index(p.data[p.pos:], commentEnd)
	if end < 0 {
		return p.errf("unterminated comment")
	}
	if data := p.data[p.pos : p.pos+end]; p.rec {
		p.b.leaf(CommentKind, data)
	} else {
		n := p.node(CommentKind)
		n.Data = string(data)
		p.kids = append(p.kids, n)
	}
	p.pos += end + len(commentEnd)
	return nil
}

// parsePI parses a processing instruction and pushes it, unless it is the
// XML declaration of a document (prolog).
func (p *parser) parsePI(prolog bool) error {
	if err := p.expect("<?"); err != nil {
		return err
	}
	target, err := p.scanName()
	if err != nil {
		return err
	}
	end := bytes.Index(p.data[p.pos:], piEnd)
	if end < 0 {
		return p.errf("unterminated processing instruction")
	}
	if !prolog || string(target) != "xml" {
		data := bytes.TrimSpace(p.data[p.pos : p.pos+end])
		if p.rec {
			p.b.pi(target, data)
		} else {
			n := p.node(PIKind)
			n.Name, n.Data = p.intern(target), string(data)
			p.kids = append(p.kids, n)
		}
	}
	p.pos += end + len(piEnd)
	return nil
}

func (p *parser) skipDoctype() error {
	if err := p.expect("<!DOCTYPE"); err != nil {
		return err
	}
	depth := 1
	for !p.eof() {
		switch p.data[p.pos] {
		case '<':
			depth++
		case '>':
			depth--
			if depth == 0 {
				p.pos++
				return nil
			}
		}
		p.pos++
	}
	return p.errf("unterminated DOCTYPE")
}
