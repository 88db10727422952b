package xmldom

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
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

var (
	cdataEnd   = []byte("]]>")
	commentEnd = []byte("-->")
	piEnd      = []byte("?>")
)

// parsers holds idle parsers, as scratchTables holds node tables: the
// scratch buffer and the builder's tables outlive a document. A parse
// runs on a core, so one per core (and at least four, for the opens the
// benchmark's clients run at once) covers a load's parse workers; a
// parse beyond them makes a parser of its own.
var parsers = make(chan *parser, max(4, runtime.NumCPU()))

// A parser reads one document into its builder, node by node in document
// order.
type parser struct {
	data []byte
	pos  int
	buf  []byte // a text run or value with a reference or CDATA
	b    builder
}

// getParser takes an idle parser, or makes one, set to read data.
func getParser(data []byte) *parser {
	var p *parser
	select {
	case p = <-parsers:
	default:
		p = new(parser)
	}
	p.data, p.pos = data, 0
	return p
}

// put drops what the parser points at in the input and hands it back.
func (p *parser) put() {
	p.b.release()
	p.data = nil
	select {
	case parsers <- p:
	default:
	}
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

func (p *parser) parseDocument() error {
	p.b.add(DocumentKind)
	if err := p.parseMisc(); err != nil {
		return err
	}
	if p.eof() {
		return p.errf("document has no root element")
	}
	if err := p.parseElement(); err != nil {
		return err
	}
	if err := p.parseMisc(); err != nil {
		return err
	}
	if !p.eof() {
		return p.errf("multiple root elements")
	}
	p.b.close(0)
	return nil
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
// seen, and adds it as a child of the element being read.
func (p *parser) parseElement() error {
	p.pos++ // '<'
	name, err := p.scanName()
	if err != nil {
		return err
	}
	ord := p.b.element(name)
	if err := p.parseAttrs(name); err != nil {
		return err
	}
	if p.peek() == '/' {
		p.pos++
		return p.expect(">")
	}
	if err := p.expect(">"); err != nil {
		return err
	}
	p.b.cur = ord
	if err := p.parseContent(name); err != nil {
		return err
	}
	p.b.close(ord)
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

// parseAttrs reads the attributes of the start tag of the element just
// added, named name, up to its '>' or '/'.
func (p *parser) parseAttrs(name []byte) error {
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
		if !p.b.attr(aname, aval, buffered) {
			return p.errf("duplicate attribute %q on <%s>", aname, name)
		}
	}
	return nil
}

// parseContent parses the content of the element named name up to and
// including the "</" of its end tag, adding each child as it is read.
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
// section or the end of input, and adds it as a text node unless it is
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
	p.b.leaf(TextKind, p.b.keep(run, buffered))
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
	p.b.leaf(CommentKind, p.data[p.pos:p.pos+end])
	p.pos += end + len(commentEnd)
	return nil
}

// parsePI parses a processing instruction and adds it, unless it is the
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
		p.b.pi(target, bytes.TrimSpace(p.data[p.pos:p.pos+end]))
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
