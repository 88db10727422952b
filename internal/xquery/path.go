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
			if nameTest(c, st.name) {
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
		if v, ok := x.Attr(st.name); ok {
			out = append(out, string(v))
		}
	case axisFollowingSibling:
		for s, ok := x.NextSibling(); ok; s, ok = s.NextSibling() {
			if nameTest(s, st.name) {
				out = append(out, n.at(s))
			}
		}
	}
	return out
}

// applyPredicates filters a candidate list, giving each predicate
// expression the candidate as its context item. A predicate whose value is
// one number keeps the candidate at that position.
func applyPredicates(ctx *evalCtx, items Seq, preds []expr) (Seq, error) {
	if len(preds) == 0 || len(items) == 0 {
		return items, nil
	}
	// One inner context serves every candidate: only the focus changes.
	sub := *ctx
	cur := items
	for _, pred := range preds {
		var kept Seq
		for i, item := range cur {
			sub.item = item
			v, err := evalExpr(&sub, pred)
			if err != nil {
				return nil, err
			}
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

// docOrder puts a step's result, which it owns, into document order with
// duplicates removed: by position in the collection, then within the
// record; constructed elements, numbered as they are built, follow every
// stored document. A step yields nodes or attribute values, never both,
// and attribute values keep encounter order.
func docOrder(items Seq) Seq {
	if len(items) < 2 {
		return items
	}
	if _, ok := items[0].(Node); !ok {
		return items
	}
	less := func(a, b Node) bool { return a.doc < b.doc || a.doc == b.doc && a.ord < b.ord }
	// The usual cases — one context node, or context nodes in order with
	// disjoint results — need no work.
	sorted := true
	for i := 1; i < len(items) && sorted; i++ {
		sorted = less(items[i-1].(Node), items[i].(Node))
	}
	if sorted {
		return items
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
