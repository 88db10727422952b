package xquery

import (
	"cmp"
	"slices"

	"xbench/internal/xmldom"
)

// cstep is a compiled step; id indexes its name in Query.names, -1 for '*' or '@'.
type cstep struct {
	axis  axis
	name  string
	id    int
	preds []func(r *runState, focus Item, pos int) (bool, error)
}

// path compiles a path: steps over the roots ('//...'), an input's items or
// the focus. Each step but the last writes into one of two scratch
// sequences in turn, the last onto out, each result in document order.
func (c *compiler) path(pe pathExpr) fn {
	var in value
	if pe.input != nil {
		in = c.value(pe.input)
	}
	steps, bufs := make([]*cstep, len(pe.steps)), [3]int{c.buf(), c.buf(), c.buf()}
	for i, st := range pe.steps {
		s := &cstep{axis: st.axis, name: st.name, id: -1}
		if st.name != "*" && st.axis != axisAttribute {
			if s.id = slices.Index(c.q.names, st.name); s.id < 0 {
				s.id, c.q.names = len(c.q.names), append(c.q.names, st.name)
			}
		}
		for _, e := range st.preds {
			s.preds = append(s.preds, c.pred(e))
		}
		steps[i] = s
	}
	return func(r *runState, focus Item, out Seq) (Seq, error) {
		items, err := r.bufs[bufs[0]][:0], error(nil)
		switch {
		case in != nil:
			items, err = in(r, focus)
		case pe.fromRoot:
			for d := range r.coll.docs {
				items = append(items, r.coll.root(d))
			}
		case focus.kind == kNone:
			return nil, &Error{Pos: pe.pos, Msg: "relative path with undefined context item"}
		default:
			items = append(items, focus)
		}
		if in == nil {
			r.bufs[bufs[0]] = items
		}
		for i, s := range steps {
			dst := out
			if i < len(steps)-1 {
				dst = r.bufs[bufs[1+i%2]][:0]
			}
			start := len(dst)
			for j := 0; j < len(items) && err == nil; j++ {
				dst, err = s.apply(r, items[j], dst)
			}
			if err != nil {
				return nil, err
			}
			if items = dst[:start+len(docOrder(dst[start:]))]; i < len(steps)-1 {
				r.bufs[bufs[1+i%2]] = items
			}
		}
		return items, nil
	}
}

// pred compiles a predicate: a number keeps the candidate at that position
// among its context node's, anything else by its effective boolean value.
func (c *compiler) pred(e expr) func(*runState, Item, int) (bool, error) {
	if t := c.boolean(e); t != nil {
		return func(r *runState, focus Item, _ int) (bool, error) { return t(r, focus) }
	}
	v := c.value(e)
	return func(r *runState, focus Item, pos int) (bool, error) {
		s, err := v(r, focus)
		if len(s) == 1 && s[0].kind == kNum {
			return int(s[0].num) == pos, err
		}
		return ebv(s), err
	}
}

// apply appends the step's result for context item n to out: its axis's
// nodes that pass the name test, kept by each predicate in turn.
func (s *cstep) apply(r *runState, n Item, out Seq) (Seq, error) {
	if n.kind != kNode {
		return out, nil
	}
	if s.axis == axisDescendant { // a long walk checks ctx at its head
		if err := r.ctx.Err(); err != nil {
			return nil, err
		}
	}
	start, x := len(out), n.ref()
	if s.axis == axisAttribute {
		if _, ok := x.Attr(s.name); ok {
			n.kind, n.str = kAttr, s.name
			out = append(out, n)
		}
	} else if ids := r.resolve(s, n.rec); s.id < 0 || len(ids) > 0 {
		// Descendants are a run of ords, and a child or following sibling
		// starts where the one before ends.
		from, to := n.ord+1, x.End()
		if s.axis == axisFollowingSibling {
			from = to
			if p, ok := x.Parent(); ok {
				to = p.End()
			}
		}
		for o := from; o < to; {
			y := n.rec.At(o)
			if id := y.NameIndex(); id >= 0 && (s.id < 0 || id == ids[0] || slices.Contains(ids[1:], id)) {
				out = append(out, Item{rec: n.rec, ord: o, doc: n.doc, kind: kNode})
			}
			if o++; s.axis != axisDescendant {
				o = y.End()
			}
		}
	}
	for _, p := range s.preds {
		kept := start
		for i := start; i < len(out); i++ {
			ok, err := p(r, out[i], i-start+1)
			if err != nil {
				return nil, err
			}
			if ok {
				out[kept] = out[i]
				kept++
			}
		}
		out = out[:kept]
	}
	return out, nil
}

// resolve returns the indexes the step's name has in rec's dictionary,
// looked up once for a run of tests in rec.
func (r *runState) resolve(s *cstep, rec *xmldom.Record) []int32 {
	if s.id < 0 {
		return nil
	}
	c := &r.names[s.id]
	if c.rec != rec {
		c.rec = rec
		c.ids = rec.NameIndexes(c.ids[:0], s.name)
	}
	return c.ids
}

// docOrder puts a step's result, which it owns, into document order
// (collection position, then ord) without duplicates; attribute values
// keep encounter order. The usual results are in order already.
func docOrder(items Seq) Seq {
	if len(items) < 2 || items[0].kind != kNode {
		return items
	}
	byPlace := func(a, b Item) int { return cmp.Or(cmp.Compare(a.doc, b.doc), cmp.Compare(a.ord, b.ord)) }
	if !slices.IsSortedFunc(items, byPlace) {
		slices.SortStableFunc(items, byPlace)
	}
	return slices.Compact(items)
}
