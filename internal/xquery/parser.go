package xquery

import (
	"fmt"
	"strconv"
)

// Parse compiles an XQuery string into an executable Query. It accepts the
// XBench subset and nothing more: a construct outside it is an *Error
// "not in the XBench subset: <construct>" at the construct's offset, and a
// call is bound to its builtin, arity checked, here rather than when the
// query runs.
func Parse(src string) (q *Query, err error) {
	p := &parser{lx: &lexer{src: src}}
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(failure)
			if !ok {
				panic(r)
			}
			q, err = nil, f.err
		}
	}()
	p.advance()
	e := p.parseExpr()
	if p.cur.kind != tokEOF {
		p.fail("unexpected %s after query", p.cur)
	}
	q = &Query{root: e, runs: make(chan *runState, 4)}
	q.eval = (&compiler{q: q}).expr(e)
	return q, nil
}

type parser struct {
	lx  *lexer
	cur token
}

// failure carries a parse error up to Parse, which recovers it: the first
// error met ends the parse.
type failure struct{ err error }

// fail ends the parse with an *Error at the current token.
func (p *parser) fail(format string, args ...any) {
	panic(failure{&Error{Pos: p.cur.pos, Msg: fmt.Sprintf(format, args...)}})
}

// reject names a construct outside the subset, at the current token.
func (p *parser) reject(construct string) { p.fail("not in the XBench subset: %s", construct) }

func (p *parser) advance() {
	t, err := p.lx.next()
	if err != nil {
		panic(failure{err})
	}
	p.cur = t
}

// is reports whether the current token is the given symbol or keyword.
func (p *parser) is(kind tokKind, text string) bool {
	return p.cur.kind == kind && p.cur.text == text
}

// peekIs reports whether the token after the current one is the given
// symbol or keyword, consuming nothing.
func (p *parser) peekIs(kind tokKind, text string) bool {
	save := *p.lx
	t, err := p.lx.next()
	*p.lx = save
	return err == nil && t.kind == kind && t.text == text
}

// accept consumes the current token if it is the given symbol/keyword.
func (p *parser) accept(kind tokKind, text string) (ok bool) {
	if ok = p.is(kind, text); ok {
		p.advance()
	}
	return ok
}

func (p *parser) expect(kind tokKind, text string) {
	if !p.accept(kind, text) {
		p.fail("expected %q, found %s", text, p.cur)
	}
}

// parseExpr parses an expression where XQuery allows a sequence: the
// query, a parenthesized expression, a predicate, an enclosed expression.
// The subset has no sequences, so it is one expression.
func (p *parser) parseExpr() expr {
	e := p.parseExprSingle()
	if p.is(tokSymbol, ",") {
		p.reject("sequence (,)")
	}
	return e
}

func (p *parser) parseExprSingle() expr {
	if p.cur.kind == tokName {
		switch p.cur.text {
		case "for":
			return p.parseFLWOR()
		case "some", "every":
			return p.parseQuantified()
		case "let":
			p.reject("let")
		}
	}
	return p.parseAnd()
}

func (p *parser) parseFLWOR() expr {
	var f flwor
	for p.accept(tokName, "for") {
		for {
			if p.cur.kind != tokVar {
				p.fail("expected variable in for clause, found %s", p.cur)
			}
			name := p.cur.text
			if p.advance(); p.is(tokName, "at") {
				p.reject("for … at")
			}
			p.expect(tokName, "in")
			f.clauses = append(f.clauses, forClause{varName: name, src: p.parseExprSingle()})
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.is(tokName, "let") {
		p.reject("let")
	}
	if p.accept(tokName, "where") {
		f.where = p.parseExprSingle()
	}
	if p.accept(tokName, "order") {
		p.expect(tokName, "by")
		f.orderBy = p.parseExprSingle()
		switch {
		case p.is(tokName, "ascending"), p.is(tokName, "descending"):
			p.reject(p.cur.text)
		case p.is(tokSymbol, ","):
			p.reject("order by, a further key")
		}
	}
	p.expect(tokName, "return")
	f.ret = p.parseExprSingle()
	return f
}

func (p *parser) parseQuantified() expr {
	q := quantified{every: p.cur.text == "every"}
	if p.advance(); p.cur.kind != tokVar {
		p.fail("expected variable after some/every")
	}
	q.varName = p.cur.text
	p.advance()
	p.expect(tokName, "in")
	q.src = p.parseExprSingle()
	p.expect(tokName, "satisfies")
	q.cond = p.parseExprSingle()
	return q
}

func (p *parser) parseAnd() expr {
	l := p.parseComparison()
	for p.accept(tokName, "and") {
		l = binary{op: "and", l: l, r: p.parseComparison()}
	}
	return l
}

// cmpOps are the general comparisons.
var cmpOps = map[string]bool{"=": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true}

func (p *parser) parseComparison() expr {
	l := p.parseOperand()
	if p.cur.kind != tokSymbol || !cmpOps[p.cur.text] {
		return l
	}
	op := p.cur.text
	p.advance()
	return binary{op: op, l: l, r: p.parseOperand()}
}

// droppedOps are the XQuery operators the subset leaves out: 'or',
// arithmetic, ranges, union and the value comparisons.
var droppedOps = map[string]bool{
	"or": true, "+": true, "-": true, "*": true, "div": true, "idiv": true, "mod": true,
	"to": true, "|": true, "union": true,
	"eq": true, "ne": true, "lt": true, "le": true, "gt": true, "ge": true,
}

// parseOperand parses a path and names a dropped operator that follows it.
func (p *parser) parseOperand() expr {
	e := p.parsePath()
	if (p.cur.kind == tokSymbol || p.cur.kind == tokName) && droppedOps[p.cur.text] {
		p.reject(p.cur.text)
	}
	return e
}

// parsePath parses a path rooted at '//', a relative path, or a primary
// expression followed by steps.
func (p *parser) parsePath() expr {
	pe := pathExpr{pos: p.cur.pos}
	switch {
	case p.accept(tokSymbol, "//"):
		pe.fromRoot = true
		pe.steps = append(pe.steps, p.parseStep(axisDescendant))
	case p.is(tokSymbol, "/"):
		p.reject("leading /")
	case p.is(tokSymbol, "@"), p.is(tokSymbol, "*"), p.is(tokSymbol, ".."),
		p.cur.kind == tokName && !p.peekIs(tokSymbol, "("):
		pe.steps = append(pe.steps, p.parseStep(axisChild))
	default:
		if pe.input = p.parsePrimary(); p.is(tokSymbol, "[") {
			p.reject("predicate on a primary")
		}
	}
	for p.is(tokSymbol, "/") || p.is(tokSymbol, "//") {
		ax := axisChild
		if p.cur.text == "//" {
			ax = axisDescendant
		}
		p.advance()
		pe.steps = append(pe.steps, p.parseStep(ax))
	}
	// A primary with no steps is the primary itself.
	if pe.input != nil && len(pe.steps) == 0 {
		return pe.input
	}
	return pe
}

// parsePrimary parses a literal, a variable, a parenthesized expression,
// the context item, a call or an element constructor.
func (p *parser) parsePrimary() expr {
	t := p.cur
	switch t.kind {
	case tokString:
		p.advance()
		return literal{str: t.text}
	case tokNumber:
		n, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			p.fail("bad number %q", t.text)
		}
		p.advance()
		return literal{num: n, isNum: true}
	case tokVar:
		p.advance()
		return varRef{name: t.text, pos: t.pos}
	case tokTagOpen:
		return p.parseElemCtor()
	case tokName:
		return p.parseCall()
	case tokSymbol:
		switch t.text {
		case "(":
			if p.peekIs(tokSymbol, ")") {
				p.reject("()")
			}
			p.advance()
			e := p.parseExpr()
			p.expect(tokSymbol, ")")
			return e
		case ".":
			p.advance()
			return contextItem{pos: t.pos}
		case "-", "+":
			p.reject("unary " + t.text)
		}
	}
	p.fail("unexpected %s", p.cur)
	return nil
}

// parseCall binds a call to its builtin and checks the arity; the current
// token is the function name, and '(' follows it.
func (p *parser) parseCall() expr {
	name, pos := p.cur.text, p.cur.pos
	fn := builtins[name]
	switch {
	case fn == nil && name == "if":
		p.reject("if")
	case fn == nil:
		p.reject(name + "()")
	}
	p.advance()
	p.expect(tokSymbol, "(")
	var args []expr
	if !p.is(tokSymbol, ")") {
		for args = append(args, p.parseExprSingle()); p.accept(tokSymbol, ","); {
			args = append(args, p.parseExprSingle())
		}
	}
	p.expect(tokSymbol, ")")
	if n := len(args); n != fn.arity && !(fn.variadic && n > fn.arity) {
		want := strconv.Itoa(fn.arity)
		if fn.variadic {
			want = "at least " + want
		}
		panic(failure{&Error{Pos: pos, Msg: fmt.Sprintf("%s() takes %s argument(s), got %d", name, want, n)}})
	}
	return call{fn: fn, args: args, pos: pos}
}

// parseStep parses one step after '/', '//', or at the start of a
// relative path: an optional '@' or 'following-sibling::', a name or '*',
// and predicates.
func (p *parser) parseStep(ax axis) step {
	st := step{axis: ax}
	switch {
	case p.cur.kind == tokName && p.peekIs(tokSymbol, ":"):
		// An explicit axis; the lexer splits '::' into two ':'.
		if p.cur.text != "following-sibling" {
			p.reject(p.cur.text + "::")
		}
		st.axis = axisFollowingSibling
		p.advance()
		p.expect(tokSymbol, ":")
		p.expect(tokSymbol, ":")
	case p.is(tokSymbol, "@"):
		if ax == axisDescendant {
			p.reject("//@")
		}
		st.axis = axisAttribute
		if p.advance(); p.is(tokSymbol, "*") {
			p.reject("@*")
		}
	}
	switch {
	case p.is(tokSymbol, "*"):
		st.name = "*"
	case p.is(tokSymbol, ".."):
		p.reject("..")
	case p.cur.kind == tokName && p.peekIs(tokSymbol, "("):
		p.reject(p.cur.text + "()") // text(), node()
	case p.cur.kind == tokName:
		st.name = p.cur.text
	default:
		p.fail("expected name test, found %s", p.cur)
	}
	for p.advance(); p.accept(tokSymbol, "["); {
		st.preds = append(st.preds, p.parseExpr())
		p.expect(tokSymbol, "]")
	}
	return st
}
