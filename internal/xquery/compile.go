package xquery

import (
	"cmp"
	"fmt"
	"slices"

	"xbench/internal/xmldom"
)

// fn appends the value of an expression, with focus the context item, to out.
type fn func(r *runState, focus Item, out Seq) (Seq, error)

// test evaluates an expression to its effective boolean value.
type test func(r *runState, focus Item) (bool, error)

// compiler turns the AST into closures. A variable gets a slot, a tested
// name an entry of the run's resolutions, and a value a scratch sequence:
// no node is its own descendant, so no scratch is in use twice at once.
type compiler struct {
	q     *Query
	scope []binding // the bound variables, innermost last
}

type binding struct {
	name string
	slot int
}

func (c *compiler) buf() int { c.q.nbufs++; return c.q.nbufs - 1 }

// value evaluates an expression into a scratch sequence of its own.
type value func(r *runState, focus Item) (Seq, error)

func (c *compiler) value(e expr) value {
	f, i := c.expr(e), c.buf()
	return func(r *runState, focus Item) (Seq, error) {
		s, err := f(r, focus, r.bufs[i][:0])
		r.bufs[i] = s
		return s, err
	}
}

// bind gives a variable a slot: a bound one, in scope until dropped, or an
// external one, which Eval fills and which stays at the bottom of scope.
func (c *compiler) bind(name string, external bool) int {
	b := binding{name, c.q.nslots}
	if c.q.nslots++; external {
		c.q.params = append(c.q.params, b)
		c.scope = slices.Insert(c.scope, 0, b)
	} else {
		c.scope = append(c.scope, b)
	}
	return b.slot
}

// slot resolves a variable: its innermost binding, else the external one.
func (c *compiler) slot(name string) int {
	for i := len(c.scope) - 1; i >= 0; i-- {
		if c.scope[i].name == name {
			return c.scope[i].slot
		}
	}
	return c.bind(name, true)
}

func (c *compiler) expr(e expr) fn {
	switch t := e.(type) {
	case literal:
		it := str(t.str)
		if t.isNum {
			it = num(t.num)
		}
		return func(_ *runState, _ Item, out Seq) (Seq, error) { return append(out, it), nil }
	case varRef:
		slot := c.slot(t.name)
		return func(r *runState, _ Item, out Seq) (Seq, error) {
			if r.slots[slot].kind == kNone {
				return nil, &Error{Pos: t.pos, Msg: "undefined variable $" + t.name}
			}
			return append(out, r.slots[slot]), nil
		}
	case contextItem:
		return func(_ *runState, focus Item, out Seq) (Seq, error) {
			if focus.kind == kNone {
				return nil, &Error{Pos: t.pos, Msg: "context item is undefined"}
			}
			return append(out, focus), nil
		}
	case pathExpr:
		return c.path(t)
	case flwor:
		return c.flwor(t)
	case elemCtor:
		return c.ctor(t)
	}
	if f := c.call(e); f != nil {
		return f
	}
	t := c.boolean(e)
	return func(r *runState, focus Item, out Seq) (Seq, error) {
		ok, err := t(r, focus)
		it := Item{kind: kBool}
		if ok {
			it.num = 1
		}
		return append(out, it), err
	}
}

// test compiles an expression for its effective boolean value: a boolean
// one directly, anything else through its sequence.
func (c *compiler) test(e expr) test {
	if t := c.boolean(e); t != nil {
		return t
	}
	v := c.value(e)
	return func(r *runState, focus Item) (bool, error) {
		s, err := v(r, focus)
		return ebv(s), err
	}
}

// boolean compiles an expression whose value is one boolean, or returns nil.
func (c *compiler) boolean(e expr) test {
	switch t := e.(type) {
	case binary:
		if t.op != "and" {
			return c.compare(t)
		}
		l, r := c.test(t.l), c.test(t.r)
		return func(st *runState, focus Item) (bool, error) {
			if ok, err := l(st, focus); !ok || err != nil {
				return false, err
			}
			return r(st, focus)
		}
	case quantified:
		return c.quantified(t)
	case call:
		return c.boolCall(t)
	}
	return nil
}

// opHolds gives the outcomes each comparison holds for: bit c+1 for the
// ordering c (-1, 0, 1) of two operands, bit 3 for a NaN operand.
var opHolds = map[string]int{"=": 2, "!=": 13, "<": 1, "<=": 3, ">": 4, ">=": 6}

// compare compiles a general comparison, existential over both sides:
// numeric where both items are numbers, else on string values (right for
// ISO dates). The right side, the catalog's parameters, is atomized once, a
// left item read as a number only if a right one is one; a match answers.
func (c *compiler) compare(b binary) test {
	l, r, holds := c.value(b.l), c.value(b.r), opHolds[b.op]
	return func(st *runState, focus Item) (bool, error) {
		rs, err := r(st, focus)
		if err != nil || len(rs) == 0 {
			return false, err
		}
		anyNum := false
		for i := range rs {
			rs[i].num, rs[i].isNum = rs[i].number()
			anyNum = anyNum || rs[i].isNum
		}
		ls, err := l(st, focus)
		for _, a := range ls {
			if a.isNum = false; anyNum {
				a.num, a.isNum = a.number()
			}
			for _, b := range rs {
				o := 3 // a NaN
				if !a.isNum || !b.isNum {
					o = compareAtoms(a, b) + 1
				} else if a.num == a.num && b.num == b.num {
					o = cmp.Compare(a.num, b.num) + 1
				}
				if holds>>o&1 != 0 {
					return true, nil
				}
			}
		}
		return false, err
	}
}

func (c *compiler) quantified(q quantified) test {
	src, slot := c.value(q.src), c.bind(q.varName, false)
	cond := c.test(q.cond)
	c.scope = c.scope[:len(c.scope)-1]
	return func(r *runState, focus Item) (bool, error) {
		s, err := src(r, focus)
		for i := 0; i < len(s) && err == nil; i++ {
			if err = r.ctx.Err(); err == nil {
				r.slots[slot] = s[i]
				ok := false
				if ok, err = cond(r, focus); ok != q.every {
					return ok, err
				}
			}
		}
		return q.every, err
	}
}

// cflwor is a compiled FLWOR: each kept tuple's bindings, then its sort
// key, go to a scratch sequence, sorted if there is a key, then returned.
type cflwor struct {
	src    []value
	slots  []int
	where  test  // nil for none
	key    value // nil for none
	ret    fn
	tuples int
}

func (c *compiler) flwor(f flwor) fn {
	cf := &cflwor{tuples: c.buf()}
	for _, cl := range f.clauses {
		cf.src = append(cf.src, c.value(cl.src))
		cf.slots = append(cf.slots, c.bind(cl.varName, false))
	}
	if f.where != nil {
		cf.where = c.test(f.where)
	}
	if f.orderBy != nil {
		cf.key = c.value(f.orderBy)
	}
	cf.ret = c.expr(f.ret)
	c.scope = c.scope[:len(c.scope)-len(f.clauses)]
	return cf.eval
}

func (f *cflwor) eval(r *runState, focus Item, out Seq) (Seq, error) {
	r.bufs[f.tuples] = r.bufs[f.tuples][:0]
	if err := f.each(r, focus, 0); err != nil {
		return nil, err
	}
	tuples, n := r.bufs[f.tuples], len(f.slots)+1
	keys := make([]int, len(tuples)/n) // where each tuple's key lies
	for i := range keys {
		keys[i] = i*n + n - 1
	}
	if f.key != nil {
		slices.SortStableFunc(keys, func(a, b int) int { return compareKeys(tuples[a], tuples[b]) })
	}
	var err error
	for _, k := range keys {
		for i, slot := range f.slots {
			r.slots[slot] = tuples[k-n+1+i]
		}
		if out, err = f.ret(r, focus, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// each binds clause i's variable to each item of its source; past the last
// clause it keeps the tuple if the where clause holds.
func (f *cflwor) each(r *runState, focus Item, i int) error {
	if i < len(f.src) {
		src, err := f.src[i](r, focus)
		for j := 0; j < len(src) && err == nil; j++ {
			if err = r.ctx.Err(); err == nil {
				r.slots[f.slots[i]] = src[j]
				err = f.each(r, focus, i+1)
			}
		}
		return err
	}
	if f.where != nil {
		if ok, err := f.where(r, focus); !ok || err != nil {
			return err
		}
	}
	var key Item // no key, or an empty one, sorts first
	if f.key != nil {
		k, err := f.key(r, focus)
		if key = first(k); err != nil {
			return err
		}
		key.num, key.isNum = key.number()
	}
	tuples := r.bufs[f.tuples]
	for _, slot := range f.slots {
		tuples = append(tuples, r.slots[slot])
	}
	r.bufs[f.tuples] = append(tuples, key)
	return nil
}

// compareKeys orders sort keys: empty first, numbers numerically, else as strings.
func compareKeys(a, b Item) int {
	switch {
	case a.kind == kNone || b.kind == kNone:
		return cmp.Compare(min(a.kind, 1), min(b.kind, 1))
	case a.isNum && b.isNum:
		if a.num != a.num || b.num != b.num {
			return 0
		}
		return cmp.Compare(a.num, b.num)
	}
	return compareAtoms(a, b)
}

// writeFn writes part of a constructed element.
type writeFn func(r *runState, focus Item, w *xmldom.Writer) error

var space = []byte(" ")

// ctor compiles a direct element constructor: it writes a record, numbered
// past the collection in construction order, behind every stored document.
func (c *compiler) ctor(e elemCtor) fn {
	write := c.writer(e)
	return func(r *runState, focus Item, out Seq) (Seq, error) {
		w := xmldom.NewWriter()
		if err := write(r, focus, w); err != nil {
			w.Release()
			return nil, err
		}
		rec, err := w.Record()
		if err != nil {
			return nil, &Error{Pos: e.pos, Msg: fmt.Sprintf("element constructor <%s>: %v", e.name, err)}
		}
		r.built++
		return append(out, Item{rec: rec, doc: r.built - 1, kind: kNode}), nil
	}
}

// writer compiles what writes e's element: a nested constructor into its
// parent's record, a node its content names as a copy, and adjacent atomic
// values of an enclosed expression with a space between.
func (c *compiler) writer(e elemCtor) writeFn {
	part := func(p any) value {
		if s, ok := p.(string); ok {
			return c.value(literal{str: s})
		}
		return c.value(p.(expr))
	}
	attrs := make([][]value, len(e.attrs))
	for i, a := range e.attrs {
		for _, p := range a.parts {
			attrs[i] = append(attrs[i], part(p))
		}
	}
	var content []writeFn
	for _, p := range e.content {
		if n, ok := p.(elemCtor); ok {
			content = append(content, c.writer(n))
			continue
		}
		a := part(p)
		content = append(content, func(r *runState, focus Item, w *xmldom.Writer) error {
			s, err := a(r, focus)
			for i, it := range s {
				if it.kind == kNode {
					w.Copy(it.ref())
					continue
				}
				if i > 0 && s[i-1].kind != kNode {
					w.Text(space)
				}
				var short [32]byte
				w.Text(it.appendText(short[:0]))
			}
			return err
		})
	}
	return func(r *runState, focus Item, w *xmldom.Writer) error {
		w.Begin(e.name)
		for i, parts := range attrs {
			var v []byte
			for _, p := range parts {
				s, err := p(r, focus)
				if err != nil {
					return err
				}
				for j, it := range s {
					if j > 0 {
						v = append(v, ' ')
					}
					v = it.appendText(v)
				}
			}
			w.Attr(e.attrs[i].name, v)
		}
		for _, f := range content {
			if err := f(r, focus, w); err != nil {
				return err
			}
		}
		w.End()
		return nil
	}
}
