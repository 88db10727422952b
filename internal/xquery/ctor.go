package xquery

import "strings"

// parseElemCtor parses a direct element constructor in token mode: the
// current token is tokTagOpen and the lexer position is just past '<'.
// After the constructor is read, the next token is fetched so token-mode
// parsing resumes normally.
func (p *parser) parseElemCtor() (expr, error) {
	ctor, err := p.parseCtorBody()
	if err != nil {
		return nil, err
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return ctor, nil
}

// parseCtorBody parses a constructor whose '<' has been consumed, entirely
// in raw mode (whitespace and text are significant; enclosed expressions
// {...} re-enter the expression parser). It does not fetch a next token:
// nested constructors must leave the parent's raw reading position intact.
func (p *parser) parseCtorBody() (expr, error) {
	l := p.lx
	name := l.rawName()
	if name == "" {
		return nil, p.errf("expected element name in constructor")
	}
	ctor := elemCtor{name: name}
	// Attributes.
	for {
		l.rawSkipSpace()
		if l.pos >= len(l.src) {
			return nil, p.errf("unterminated constructor <%s", name)
		}
		if l.src[l.pos] == '/' || l.src[l.pos] == '>' {
			break
		}
		aname := l.rawName()
		if aname == "" {
			return nil, p.errf("expected attribute name in <%s>", name)
		}
		l.rawSkipSpace()
		if !l.rawByte('=') {
			return nil, p.errf("expected '=' after attribute %s", aname)
		}
		l.rawSkipSpace()
		if l.pos >= len(l.src) || (l.src[l.pos] != '"' && l.src[l.pos] != '\'') {
			return nil, p.errf("attribute %s value must be quoted", aname)
		}
		quote := l.src[l.pos]
		l.pos++
		parts, err := p.rawParts(quote)
		if err != nil {
			return nil, err
		}
		l.pos++ // closing quote
		ctor.attrs = append(ctor.attrs, attrCtor{name: aname, parts: parts})
	}
	if l.src[l.pos] == '/' {
		l.pos++
		if !l.rawByte('>') {
			return nil, p.errf("expected '/>' in <%s>", name)
		}
		return ctor, nil
	}
	l.pos++ // '>'
	// Content: raw text, {expr}, nested elements, until </name>.
	for {
		if l.pos >= len(l.src) {
			return nil, p.errf("unterminated element <%s>", name)
		}
		if strings.HasPrefix(l.src[l.pos:], "</") {
			l.pos += 2
			end := l.rawName()
			if end != name {
				return nil, p.errf("mismatched </%s> for <%s>", end, name)
			}
			l.rawSkipSpace()
			if !l.rawByte('>') {
				return nil, p.errf("expected '>' after </%s", name)
			}
			return ctor, nil
		}
		if l.src[l.pos] == '<' {
			l.pos++
			child, err := p.parseCtorBody()
			if err != nil {
				return nil, err
			}
			ctor.content = append(ctor.content, child)
			continue
		}
		if l.src[l.pos] == '{' {
			if strings.HasPrefix(l.src[l.pos:], "{{") {
				ctor.content = append(ctor.content, "{")
				l.pos += 2
				continue
			}
			l.pos++
			e, err := p.enclosedExpr()
			if err != nil {
				return nil, err
			}
			ctor.content = append(ctor.content, e)
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
func (p *parser) rawParts(term byte) ([]any, error) {
	l := p.lx
	var parts []any
	for {
		if l.pos >= len(l.src) {
			return nil, p.errf("unterminated attribute value")
		}
		c := l.src[l.pos]
		if c == term {
			return parts, nil
		}
		if c == '{' {
			l.pos++
			e, err := p.enclosedExpr()
			if err != nil {
				return nil, err
			}
			parts = append(parts, e)
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
func (p *parser) enclosedExpr() (expr, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !(p.cur.kind == tokSymbol && p.cur.text == "}") {
		return nil, p.errf("expected '}' after enclosed expression, found %s", p.cur)
	}
	// Do NOT advance: the lexer is already positioned after '}', and the
	// caller resumes raw-mode reading from there.
	return e, nil
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
