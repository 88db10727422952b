package shredplan

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"xbench/internal/core"
	"xbench/internal/relational"
	"xbench/internal/xquery"
)

// predKind is what a pred tests.
type predKind int

const (
	kNull    predKind = iota // the column is NULL: its element is absent
	kEq                      // the column equals arg
	kBetween                 // arg <= the column <= hi, as strings (ISO dates)
	kGE                      // the column's number >= arg's
	kGT                      // the column's number > arg's
	kWord                    // one of the columns holds the word arg
	kPhrase                  // the column holds the text arg
)

// pred is a test on a row's stored columns. arg and hi are a query
// parameter ("$Y") or, without the "$", a literal. A NULL column holds no
// text and no number, and equals no value.
type pred struct {
	kind    predKind
	cols    []column
	arg, hi string
}

func newPred(kind predKind, arg string, cols ...string) *pred {
	p := &pred{kind: kind, arg: arg}
	for _, c := range cols {
		p.cols = append(p.cols, column{name: c})
	}
	return p
}

func isNull(c string) *pred                 { return newPred(kNull, "", c) }
func eq(c, arg string) *pred                { return newPred(kEq, arg, c) }
func ge(c, arg string) *pred                { return newPred(kGE, arg, c) }
func gt(c, arg string) *pred                { return newPred(kGT, arg, c) }
func phrase(c, arg string) *pred            { return newPred(kPhrase, arg, c) }
func word(arg string, cols ...string) *pred { return newPred(kWord, arg, cols...) }

func between(c, lo, hi string) *pred {
	p := newPred(kBetween, lo, c)
	p.hi = hi
	return p
}

func (p *pred) resolve(cols []string) {
	for i := range p.cols {
		p.cols[i] = col(cols, p.cols[i].name)
	}
}

// bound is arg bound: a parameter's value or the literal.
func bound(arg string, params core.Params) string {
	if name, ok := strings.CutPrefix(arg, "$"); ok {
		return params.Get(name)
	}
	return arg
}

// bind returns the test with its arguments bound to params. It reads each
// column where the record lies.
func (p *pred) bind(params core.Params) func(relational.Rec) bool {
	c, v := p.cols[0].i, bound(p.arg, params)
	switch p.kind {
	case kNull:
		return func(r relational.Rec) bool { return r.Null(c) }
	case kEq:
		return func(r relational.Rec) bool { return string(r.Col(c)) == v }
	case kBetween:
		hi := bound(p.hi, params)
		return func(r relational.Rec) bool { return r.Between(c, v, hi) }
	case kGE, kGT:
		x, ok := number([]byte(v))
		return func(r relational.Rec) bool {
			f, fok := number(r.Col(c))
			return ok && fok && (f > x || p.kind == kGE && f == x)
		}
	case kPhrase:
		b := []byte(v)
		return func(r relational.Rec) bool { return !r.Null(c) && bytes.Contains(r.Col(c), b) }
	}
	w := xquery.CompileWord(v)
	return func(r relational.Rec) bool {
		for _, c := range p.cols {
			if !r.Null(c.i) && w.Match(r.Col(c.i)) {
				return true
			}
		}
		return false
	}
}

// number parses a stored value as a float; NULL is no number.
func number(b []byte) (float64, bool) {
	if string(b) == relational.Null {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(b), 64)
	return f, err == nil
}

// String renders the test as Explain prints it.
func (p *pred) String() string {
	c := p.cols[0].name
	arg := p.arg
	if !strings.HasPrefix(arg, "$") && p.kind == kEq {
		arg = strconv.Quote(arg)
	}
	switch p.kind {
	case kNull:
		return c + " is null"
	case kEq:
		return c + " = " + arg
	case kBetween:
		return fmt.Sprintf("%s in [%s..%s]", c, arg, p.hi)
	case kGE:
		return c + " >= " + arg
	case kGT:
		return c + " > " + arg
	case kPhrase:
		return "contains(" + c + ", " + arg + ")"
	}
	var names []string
	for _, c := range p.cols {
		names = append(names, c.name)
	}
	return "text-search(" + strings.Join(names, ", ") + ", " + arg + ")"
}
