package xquery

import (
	"strconv"
	"strings"
)

// This file is the planner's view into the AST. The AST itself stays
// unexported; Query.Shape distills the structural facts the cost-based
// planner in internal/plan decides on: which collections the query reads,
// which predicates gate the primary access, whether a positional [1]
// caps the result, and whether it looks a document up by name.

// Pred is one comparison predicate extracted from a path step or a
// FLWOR source: Path op Param, with Path relative to the step's element
// (attributes spelled "@name") and Param either "$var", a "$var/path"
// join reference, or a literal.
type Pred struct {
	Path  string
	Op    string
	Param string
}

// Source is one rooted collection access (a '//elem[...]' path or a
// FLWOR for-clause over one).
type Source struct {
	// RootElem is the first named element step ("item", "order", ...).
	RootElem string
	// Preds are the comparison predicates on that step.
	Preds []Pred
	// Positional is the value of the first numeric positional
	// predicate on a later step ("/sense[1]"), 0 if none. A positional
	// k means at most k items of the inner path are needed per match —
	// the planner's Limit.
	Positional int
}

// Shape summarizes a parsed query for the planner.
type Shape struct {
	// Sources lists rooted collection accesses in query order; the
	// first is the primary access the planner costs.
	Sources []Source
	// UsesDoc is true for doc($X) document lookups.
	UsesDoc bool
	// DocParam names the variable a doc($X) lookup binds the document
	// name to ("X"), when its argument is a bare variable.
	DocParam string
}

// Shape summarizes the structure of a parsed query. Constructs it does
// not recognize simply come back with fewer facts (no sources, no preds),
// which the planner treats as a full scan.
func (q *Query) Shape() *Shape {
	sh := &Shape{}
	sh.walk(q.root)
	return sh
}

// walk traverses the expression tree.
func (a *Shape) walk(e expr) {
	switch v := e.(type) {
	case literal, varRef, contextItem, nil:
	case pathExpr:
		if v.fromRoot {
			a.source(v)
			return
		}
		a.walk(v.input)
		for _, st := range v.steps {
			for _, p := range st.preds {
				a.walk(p)
			}
		}
	case binary:
		a.walk(v.l)
		a.walk(v.r)
	case call:
		if v.fn.name == "doc" {
			a.UsesDoc = true
			if vr, ok := v.args[0].(varRef); ok {
				a.DocParam = vr.name
			}
		}
		for _, arg := range v.args {
			a.walk(arg)
		}
	case flwor:
		for _, cl := range v.clauses {
			a.walk(cl.src)
		}
		if v.where != nil {
			a.walk(v.where)
		}
		a.walk(v.ret)
	case quantified:
		a.walk(v.src)
		a.walk(v.cond)
	case elemCtor:
		var parts []any
		for _, at := range v.attrs {
			parts = append(parts, at.parts...)
		}
		for _, part := range append(parts, v.content...) {
			if ex, ok := part.(expr); ok {
				a.walk(ex)
			}
		}
	}
}

// source records a rooted path as a Source: root element, predicates on
// it, and any positional cap on the trailing steps. Predicates are also
// walked so the rooted paths inside them are sources too.
func (a *Shape) source(p pathExpr) {
	var src Source
	primary := -1
	for i, st := range p.steps {
		if st.name != "" && st.name != "*" && st.axis != axisAttribute {
			primary = i
			src.RootElem = st.name
			break
		}
	}
	for i, st := range p.steps {
		for _, pr := range st.preds {
			if i == primary {
				src.Preds = append(src.Preds, collectPreds(pr)...)
			}
			if i > primary && src.Positional == 0 {
				if n, ok := positional(pr); ok {
					src.Positional = n
				}
			}
			a.walk(pr)
		}
	}
	a.Sources = append(a.Sources, src)
}

// collectPreds flattens an 'and' tree of comparisons into Preds,
// skipping anything that is not a simple path-vs-param comparison
// (quantifiers, empty(), function predicates).
func collectPreds(e expr) []Pred {
	switch v := e.(type) {
	case binary:
		switch v.op {
		case "and":
			return append(collectPreds(v.l), collectPreds(v.r)...)
		case "=", "!=", "<", "<=", ">", ">=":
			path, ok := relPath(v.l)
			if !ok {
				return nil
			}
			param, ok := paramRef(v.r)
			if !ok {
				return nil
			}
			return []Pred{{Path: path, Op: v.op, Param: param}}
		}
	}
	return nil
}

// positional reports a bare numeric predicate [n].
func positional(e expr) (int, bool) {
	lit, ok := e.(literal)
	if !ok || !lit.isNum {
		return 0, false
	}
	n := int(lit.num)
	if float64(n) != lit.num || n < 1 {
		return 0, false
	}
	return n, true
}

// relPath renders a relative path expression ("hw", "@id",
// "prolog/dateline/date") and unwraps string()/number() around one.
func relPath(e expr) (string, bool) {
	switch v := e.(type) {
	case call:
		if v.fn.name == "string" || v.fn.name == "number" {
			return relPath(v.args[0])
		}
	case pathExpr:
		if v.fromRoot {
			return "", false
		}
		switch v.input.(type) {
		case nil, contextItem:
		default:
			return "", false
		}
		return renderSteps(v.steps)
	}
	return "", false
}

// paramRef renders the comparison's right side: "$X" for variables,
// "$o/customer_id" for join references into another binding, or the
// literal text. string()/number() wrappers are transparent.
func paramRef(e expr) (string, bool) {
	switch v := e.(type) {
	case varRef:
		return "$" + v.name, true
	case literal:
		if v.isNum {
			return strconv.FormatFloat(v.num, 'g', -1, 64), true
		}
		return strconv.Quote(v.str), true
	case call:
		if v.fn.name == "string" || v.fn.name == "number" {
			return paramRef(v.args[0])
		}
	case pathExpr:
		vr, ok := v.input.(varRef)
		if !ok || v.fromRoot {
			return "", false
		}
		tail, ok := renderSteps(v.steps)
		if !ok {
			return "", false
		}
		return "$" + vr.name + "/" + tail, true
	}
	return "", false
}

func renderSteps(steps []step) (string, bool) {
	parts := make([]string, 0, len(steps))
	for _, st := range steps {
		if len(st.preds) != 0 || st.name == "" {
			return "", false
		}
		switch st.axis {
		case axisChild, axisDescendant:
			parts = append(parts, st.name)
		case axisAttribute:
			parts = append(parts, "@"+st.name)
		default:
			return "", false
		}
	}
	if len(parts) == 0 {
		return "", false
	}
	return strings.Join(parts, "/"), true
}
