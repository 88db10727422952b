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
func Parse(src string) (*Query, error) {
	p := &parser{lx: &lexer{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.cur.kind != tokEOF {
		return nil, p.errf("unexpected %s after query", p.cur)
	}
	return &Query{root: e}, nil
}

type parser struct {
	lx  *lexer
	cur token
}

func (p *parser) errf(format string, args ...any) error {
	return &Error{Pos: p.cur.pos, Msg: fmt.Sprintf(format, args...)}
}

// reject names a construct outside the subset, at the current token.
func (p *parser) reject(construct string) error {
	return p.errf("not in the XBench subset: %s", construct)
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.cur = t
	return nil
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
func (p *parser) accept(kind tokKind, text string) (bool, error) {
	if p.is(kind, text) {
		return true, p.advance()
	}
	return false, nil
}

func (p *parser) expect(kind tokKind, text string) error {
	ok, err := p.accept(kind, text)
	if err != nil {
		return err
	}
	if !ok {
		return p.errf("expected %q, found %s", text, p.cur)
	}
	return nil
}

// parseExpr parses an expression where XQuery allows a sequence: the
// query, a parenthesized expression, a predicate, an enclosed expression.
// The subset has no sequences, so it is one expression.
func (p *parser) parseExpr() (expr, error) {
	e, err := p.parseExprSingle()
	if err == nil && p.is(tokSymbol, ",") {
		return nil, p.reject("sequence (,)")
	}
	return e, err
}

func (p *parser) parseExprSingle() (expr, error) {
	if p.cur.kind == tokName {
		switch p.cur.text {
		case "for":
			return p.parseFLWOR()
		case "some", "every":
			return p.parseQuantified()
		case "let":
			return nil, p.reject("let")
		}
	}
	return p.parseAnd()
}

func (p *parser) parseFLWOR() (expr, error) {
	var f flwor
	for p.is(tokName, "for") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			if p.cur.kind != tokVar {
				return nil, p.errf("expected variable in for clause, found %s", p.cur)
			}
			name := p.cur.text
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.is(tokName, "at") {
				return nil, p.reject("for … at")
			}
			if err := p.expect(tokName, "in"); err != nil {
				return nil, err
			}
			src, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			f.clauses = append(f.clauses, forClause{varName: name, src: src})
			ok, err := p.accept(tokSymbol, ",")
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
	}
	if p.is(tokName, "let") {
		return nil, p.reject("let")
	}
	if ok, err := p.accept(tokName, "where"); err != nil {
		return nil, err
	} else if ok {
		if f.where, err = p.parseExprSingle(); err != nil {
			return nil, err
		}
	}
	if p.is(tokName, "order") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect(tokName, "by"); err != nil {
			return nil, err
		}
		key, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		switch {
		case p.is(tokName, "ascending"), p.is(tokName, "descending"):
			return nil, p.reject(p.cur.text)
		case p.is(tokSymbol, ","):
			return nil, p.reject("order by, a further key")
		}
		f.orderBy = key
	}
	if err := p.expect(tokName, "return"); err != nil {
		return nil, err
	}
	ret, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	f.ret = ret
	return f, nil
}

func (p *parser) parseQuantified() (expr, error) {
	every := p.cur.text == "every"
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.cur.kind != tokVar {
		return nil, p.errf("expected variable after some/every")
	}
	name := p.cur.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expect(tokName, "in"); err != nil {
		return nil, err
	}
	src, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokName, "satisfies"); err != nil {
		return nil, err
	}
	cond, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	return quantified{every: every, varName: name, src: src, cond: cond}, nil
}

func (p *parser) parseAnd() (expr, error) {
	l, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	for {
		ok, err := p.accept(tokName, "and")
		if err != nil {
			return nil, err
		}
		if !ok {
			return l, nil
		}
		r, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		l = binary{op: "and", l: l, r: r}
	}
}

// cmpOps are the general comparisons.
var cmpOps = map[string]bool{"=": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true}

func (p *parser) parseComparison() (expr, error) {
	l, err := p.parseOperand()
	if err != nil || p.cur.kind != tokSymbol || !cmpOps[p.cur.text] {
		return l, err
	}
	op := p.cur.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	r, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	return binary{op: op, l: l, r: r}, nil
}

// droppedOps are the XQuery operators the subset leaves out: 'or',
// arithmetic, ranges, union and the value comparisons.
var droppedOps = map[string]bool{
	"or": true, "+": true, "-": true, "*": true, "div": true, "idiv": true, "mod": true,
	"to": true, "|": true, "union": true,
	"eq": true, "ne": true, "lt": true, "le": true, "gt": true, "ge": true,
}

// parseOperand parses a path and names a dropped operator that follows it.
func (p *parser) parseOperand() (expr, error) {
	e, err := p.parsePath()
	if err == nil && (p.cur.kind == tokSymbol || p.cur.kind == tokName) && droppedOps[p.cur.text] {
		return nil, p.reject(p.cur.text)
	}
	return e, err
}

// parsePath parses a path rooted at '//', a relative path, or a primary
// expression followed by steps.
func (p *parser) parsePath() (expr, error) {
	var pe pathExpr
	switch {
	case p.is(tokSymbol, "//"):
		pe.fromRoot = true
		if err := p.advance(); err != nil {
			return nil, err
		}
		st, err := p.parseStep(axisDescendant)
		if err != nil {
			return nil, err
		}
		pe.steps = append(pe.steps, st)
	case p.is(tokSymbol, "/"):
		return nil, p.reject("leading /")
	case p.is(tokSymbol, "@"), p.is(tokSymbol, "*"), p.is(tokSymbol, ".."),
		p.cur.kind == tokName && !p.peekIs(tokSymbol, "("):
		st, err := p.parseStep(axisChild)
		if err != nil {
			return nil, err
		}
		pe.steps = append(pe.steps, st)
	default:
		prim, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		if p.is(tokSymbol, "[") {
			return nil, p.reject("predicate on a primary")
		}
		pe.input = prim
	}
	for p.is(tokSymbol, "/") || p.is(tokSymbol, "//") {
		ax := axisChild
		if p.cur.text == "//" {
			ax = axisDescendant
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		st, err := p.parseStep(ax)
		if err != nil {
			return nil, err
		}
		pe.steps = append(pe.steps, st)
	}
	// A primary with no steps is the primary itself.
	if pe.input != nil && len(pe.steps) == 0 {
		return pe.input, nil
	}
	return pe, nil
}

// parsePrimary parses a literal, a variable, a parenthesized expression,
// the context item, a call or an element constructor.
func (p *parser) parsePrimary() (expr, error) {
	t := p.cur
	switch t.kind {
	case tokString:
		return literal{str: t.text}, p.advance()
	case tokNumber:
		n, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return literal{num: n, isNum: true}, p.advance()
	case tokVar:
		return varRef{name: t.text}, p.advance()
	case tokTagOpen:
		return p.parseElemCtor()
	case tokName:
		return p.parseCall()
	case tokSymbol:
		switch t.text {
		case "(":
			if p.peekIs(tokSymbol, ")") {
				return nil, p.reject("()")
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return e, p.expect(tokSymbol, ")")
		case ".":
			return contextItem{}, p.advance()
		case "-", "+":
			return nil, p.reject("unary " + t.text)
		}
	}
	return nil, p.errf("unexpected %s", p.cur)
}

// parseCall binds a call to its builtin and checks the arity; the current
// token is the function name, and '(' follows it.
func (p *parser) parseCall() (expr, error) {
	name, pos := p.cur.text, p.cur.pos
	fn := lookupBuiltin(name)
	if fn == nil {
		if name == "if" {
			return nil, p.reject("if")
		}
		return nil, p.reject(name + "()")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	var args []expr
	if !p.is(tokSymbol, ")") {
		for {
			a, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			ok, err := p.accept(tokSymbol, ",")
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
	}
	if err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	if n := len(args); n != fn.arity && !(fn.variadic && n > fn.arity) {
		want := strconv.Itoa(fn.arity)
		if fn.variadic {
			want = "at least " + want
		}
		return nil, &Error{Pos: pos, Msg: fmt.Sprintf("%s() takes %s argument(s), got %d", name, want, n)}
	}
	return call{fn: fn, args: args}, nil
}

// parseStep parses one step after '/', '//', or at the start of a
// relative path: an optional '@' or 'following-sibling::', a name or '*',
// and predicates.
func (p *parser) parseStep(ax axis) (step, error) {
	st := step{axis: ax}
	switch {
	case p.cur.kind == tokName && p.peekIs(tokSymbol, ":"):
		// An explicit axis; the lexer splits '::' into two ':'.
		if p.cur.text != "following-sibling" {
			return st, p.reject(p.cur.text + "::")
		}
		st.axis = axisFollowingSibling
		if err := p.advance(); err != nil {
			return st, err
		}
		if err := p.expect(tokSymbol, ":"); err != nil {
			return st, err
		}
		if err := p.expect(tokSymbol, ":"); err != nil {
			return st, err
		}
	case p.is(tokSymbol, "@"):
		if ax == axisDescendant {
			return st, p.reject("//@")
		}
		st.axis = axisAttribute
		if err := p.advance(); err != nil {
			return st, err
		}
		if p.is(tokSymbol, "*") {
			return st, p.reject("@*")
		}
	}
	switch {
	case p.is(tokSymbol, "*"):
		st.name = "*"
	case p.is(tokSymbol, ".."):
		return st, p.reject("..")
	case p.cur.kind == tokName && p.peekIs(tokSymbol, "("):
		return st, p.reject(p.cur.text + "()") // text(), node()
	case p.cur.kind == tokName:
		st.name = p.cur.text
	default:
		return st, p.errf("expected name test, found %s", p.cur)
	}
	if err := p.advance(); err != nil {
		return st, err
	}
	preds, err := p.parsePredicates()
	st.preds = preds
	return st, err
}

func (p *parser) parsePredicates() ([]expr, error) {
	var preds []expr
	for p.is(tokSymbol, "[") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokSymbol, "]"); err != nil {
			return nil, err
		}
		preds = append(preds, e)
	}
	return preds, nil
}
