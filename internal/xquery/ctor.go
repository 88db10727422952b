package xquery

import "strings"

// parseElemCtor parses a direct element constructor in token mode: the
// current token is tokTagOpen and the lexer position is just past '<'.
// After the constructor is read, the next token is fetched so token-mode
// parsing resumes normally.
func (p *parser) parseElemCtor() expr {
	ctor := p.parseCtorBody()
	p.advance()
	return ctor
}

// parseCtorBody parses a constructor whose '<' has been consumed, entirely
// in raw mode (whitespace and text are significant; enclosed expressions
// {...} re-enter the expression parser). It does not fetch a next token:
// nested constructors must leave the parent's raw reading position intact.
func (p *parser) parseCtorBody() expr {
	l := p.lx
	name := l.rawName()
	if name == "" {
		p.fail("expected element name in constructor")
	}
	ctor := elemCtor{name: name, pos: l.pos - len(name) - 1}
	// Attributes.
	for {
		l.rawSkipSpace()
		if l.pos >= len(l.src) {
			p.fail("unterminated constructor <%s", name)
		}
		if l.src[l.pos] == '/' || l.src[l.pos] == '>' {
			break
		}
		aname := l.rawName()
		if aname == "" {
			p.fail("expected attribute name in <%s>", name)
		}
		l.rawSkipSpace()
		if !l.rawByte('=') {
			p.fail("expected '=' after attribute %s", aname)
		}
		l.rawSkipSpace()
		if l.pos >= len(l.src) || (l.src[l.pos] != '"' && l.src[l.pos] != '\'') {
			p.fail("attribute %s value must be quoted", aname)
		}
		l.pos++
		parts := p.rawParts(l.src[l.pos-1])
		l.pos++ // closing quote
		ctor.attrs = append(ctor.attrs, attrCtor{name: aname, parts: parts})
	}
	if l.src[l.pos] == '/' {
		l.pos++
		if !l.rawByte('>') {
			p.fail("expected '/>' in <%s>", name)
		}
		return ctor
	}
	l.pos++ // '>'
	// Content: raw text, {expr}, nested elements, until </name>.
	for {
		if l.pos >= len(l.src) {
			p.fail("unterminated element <%s>", name)
		}
		if strings.HasPrefix(l.src[l.pos:], "</") {
			l.pos += 2
			end := l.rawName()
			if end != name {
				p.fail("mismatched </%s> for <%s>", end, name)
			}
			l.rawSkipSpace()
			if !l.rawByte('>') {
				p.fail("expected '>' after </%s", name)
			}
			return ctor
		}
		if l.src[l.pos] == '<' {
			l.pos++
			ctor.content = append(ctor.content, p.parseCtorBody())
			continue
		}
		if l.src[l.pos] == '{' {
			if strings.HasPrefix(l.src[l.pos:], "{{") {
				ctor.content = append(ctor.content, "{")
				l.pos += 2
				continue
			}
			l.pos++
			ctor.content = append(ctor.content, p.enclosedExpr())
			continue
		}
		// Raw text run.
		start := l.pos
		for l.pos < len(l.src) && l.src[l.pos] != '<' && l.src[l.pos] != '{' {
			l.pos++
		}
		if txt := l.src[start:l.pos]; txt != "" {
			ctor.content = append(ctor.content, txt)
		}
	}
}

// rawParts collects attribute-value parts: text runs and enclosed exprs,
// stopping at the terminator character (not consumed).
func (p *parser) rawParts(term byte) []any {
	l := p.lx
	var parts []any
	for {
		if l.pos >= len(l.src) {
			p.fail("unterminated attribute value")
		}
		c := l.src[l.pos]
		if c == term {
			return parts
		}
		if c == '{' {
			l.pos++
			parts = append(parts, p.enclosedExpr())
			continue
		}
		start := l.pos
		for l.pos < len(l.src) && l.src[l.pos] != term && l.src[l.pos] != '{' {
			l.pos++
		}
		parts = append(parts, l.src[start:l.pos])
	}
}

// enclosedExpr parses {expr}: the '{' is consumed; on return the lexer is
// positioned right after the matching '}'.
func (p *parser) enclosedExpr() expr {
	p.advance()
	e := p.parseExpr()
	if !p.is(tokSymbol, "}") {
		p.fail("expected '}' after enclosed expression, found %s", p.cur)
	}
	// Do NOT advance: the lexer is already positioned after '}', and the
	// caller resumes raw-mode reading from there.
	return e
}

// raw-mode lexer helpers.

func (l *lexer) rawSkipSpace() {
	for l.pos < len(l.src) && isSpace(l.src[l.pos]) {
		l.pos++
	}
}

func (l *lexer) rawName() string {
	start := l.pos
	if l.pos >= len(l.src) || !isNameStart(l.src[l.pos]) {
		return ""
	}
	l.pos++
	for l.pos < len(l.src) && isNameChar(l.src[l.pos]) {
		l.pos++
	}
	return l.src[start:l.pos]
}

func (l *lexer) rawByte(c byte) bool {
	if l.pos < len(l.src) && l.src[l.pos] == c {
		l.pos++
		return true
	}
	return false
}
