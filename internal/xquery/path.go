package xquery

import (
	"sort"

	"xbench/internal/xmldom"
)

func evalPath(ctx *evalCtx, pe pathExpr) (Seq, error) {
	var cur Seq
	switch {
	case pe.fromRoot:
		cur = ctx.coll.roots()
	case pe.input != nil:
		s, err := evalExpr(ctx, pe.input)
		if err != nil {
			return nil, err
		}
		cur = s
		if len(pe.preds) > 0 {
			cur, err = applyPredicates(ctx, cur, pe.preds)
			if err != nil {
				return nil, err
			}
		}
	default:
		if ctx.item == nil {
			return nil, &Error{Msg: "relative path with undefined context item"}
		}
		cur = Seq{ctx.item}
	}
	for _, st := range pe.steps {
		next, err := applyStep(ctx, cur, st)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// applyStep evaluates one step for every node in the input sequence,
// applying the step's predicates per context node (XPath position
// semantics), then merges results in document order with duplicates
// removed.
func applyStep(ctx *evalCtx, input Seq, st step) (Seq, error) {
	var merged Seq
	for _, item := range input {
		n, ok := item.(Node)
		if !ok {
			continue // axis steps apply to nodes only
		}
		if len(st.preds) == 0 {
			merged = appendCandidates(merged, n, st)
			continue
		}
		filtered, err := applyPredicates(ctx, appendCandidates(nil, n, st), st.preds)
		if err != nil {
			return nil, err
		}
		merged = append(merged, filtered...)
	}
	return docOrder(merged), nil
}

// nameTest reports whether element x passes the step's name test.
func nameTest(x xmldom.Ref, name string) bool {
	return x.Kind() == xmldom.ElementKind && (name == "*" || string(x.Name()) == name)
}

// appendCandidates appends the raw axis results for one context node.
func appendCandidates(out Seq, n Node, st step) Seq {
	x := n.ref()
	switch st.axis {
	case axisChild:
		for c, ok := x.FirstChild(); ok; c, ok = c.NextSibling() {
			switch {
			case c.Kind() == xmldom.TextKind:
				if st.name == "text()" || st.name == "node()" {
					out = append(out, string(c.Data()))
				}
			case st.name == "node()":
				out = append(out, n.at(c))
			case nameTest(c, st.name):
				out = append(out, n.at(c))
			}
		}
	case axisDescendant:
		// descendant (not -or-self), element name test. The subtree is a
		// run of ords, and a record whose dictionary lacks the name has no
		// match anywhere.
		if st.name != "*" && !n.rec.HasName(st.name) {
			return out
		}
		for o, end := n.ord+1, x.End(); o < end; o++ {
			if nameTest(n.rec.At(o), st.name) {
				out = append(out, Node{n.rec, o, n.doc})
			}
		}
	case axisAttribute:
		if st.deep {
			// //@name: attributes of descendant-or-self elements.
			for o, end := n.ord, x.End(); o < end; o++ {
				out = appendAttrValues(out, n.rec.At(o), st.name)
			}
		} else {
			out = appendAttrValues(out, x, st.name)
		}
	case axisSelf:
		if nameTest(x, st.name) {
			out = append(out, n)
		}
	case axisParent:
		if p, ok := x.Parent(); ok && nameTest(p, st.name) {
			out = append(out, n.at(p))
		}
	case axisFollowingSibling:
		for s, ok := x.NextSibling(); ok; s, ok = s.NextSibling() {
			if nameTest(s, st.name) {
				out = append(out, n.at(s))
			}
		}
	case axisPrecedingSibling:
		p, ok := x.Parent()
		if !ok {
			return out
		}
		first := len(out)
		for s, ok := p.FirstChild(); ok && s != x; s, ok = s.NextSibling() {
			if nameTest(s, st.name) {
				out = append(out, n.at(s))
			}
		}
		// preceding-sibling in reverse document order (XPath semantics:
		// positions count backwards from the context node).
		for i, j := first, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}

// appendAttrValues appends the values of x's attributes that pass the
// name test ("*" for all; otherwise the first of that name).
func appendAttrValues(out Seq, x xmldom.Ref, name string) Seq {
	if name != "*" {
		if v, ok := x.Attr(name); ok {
			out = append(out, string(v))
		}
		return out
	}
	for it := x.Attrs(); ; {
		_, v, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, string(v))
	}
}

// applyPredicates filters a candidate list, giving each predicate
// expression access to the context item, position() and last().
func applyPredicates(ctx *evalCtx, items Seq, preds []expr) (Seq, error) {
	if len(preds) == 0 || len(items) == 0 {
		return items, nil
	}
	// One inner context serves every candidate: only the focus changes.
	sub := *ctx
	cur := items
	for _, pred := range preds {
		var kept Seq
		sub.size = len(cur)
		for i, item := range cur {
			sub.item = item
			sub.pos = i + 1
			v, err := evalExpr(&sub, pred)
			if err != nil {
				return nil, err
			}
			// A single numeric predicate value is a position test.
			if len(v) == 1 {
				if f, ok := v[0].(float64); ok {
					if int(f) == i+1 {
						kept = append(kept, item)
					}
					continue
				}
			}
			if ebv(v) {
				kept = append(kept, item)
			}
		}
		cur = kept
	}
	return cur, nil
}

// docOrder removes duplicate nodes from a sequence it owns and, when it
// holds nothing but nodes, puts it into document order in place: by
// position in the collection, then within the record; constructed
// elements, numbered as they are built, follow every stored document. A
// sequence holding an atomic item keeps encounter order.
func docOrder(items Seq) Seq {
	if len(items) < 2 {
		return items
	}
	less := func(a, b Node) bool { return a.doc < b.doc || a.doc == b.doc && a.ord < b.ord }
	// The usual cases — attribute or text values only; one context node, or
	// context nodes in order with disjoint results — need no work.
	nodes, sorted := 0, true
	var prev Node
	for _, it := range items {
		n, ok := it.(Node)
		if !ok {
			continue
		}
		if nodes > 0 && !less(prev, n) {
			sorted = false
		}
		prev = n
		nodes++
	}
	switch {
	case nodes < 2 || nodes == len(items) && sorted:
		return items
	case nodes < len(items):
		seen := make(map[Node]bool, nodes)
		w := 0
		for _, it := range items {
			if n, ok := it.(Node); ok {
				if seen[n] {
					continue
				}
				seen[n] = true
			}
			items[w] = it
			w++
		}
		return items[:w]
	}
	sort.SliceStable(items, func(i, j int) bool { return less(items[i].(Node), items[j].(Node)) })
	w := 1
	for _, it := range items[1:] {
		if it != items[w-1] {
			items[w] = it
			w++
		}
	}
	return items[:w]
}
