package xquery

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"xbench/internal/xmldom"
)

// Item is one value in a sequence: Node, string, float64 or bool.
type Item any

// Seq is an ordered sequence of items (the XQuery data model).
type Seq []Item

// Node is the node item: a position in an opened binary-DOM record. It is
// a comparable value — two Nodes are the same node exactly when they are
// equal — and (doc, ord) is its place in document order across the
// collection. Nothing of the record is decoded to reach it; names,
// attribute values and text are read from the record's bytes when an
// expression asks for them.
type Node struct {
	rec *xmldom.Record
	ord int32 // position in the record's document order
	doc int32 // collection position; constructed elements follow the collection
}

func (n Node) ref() xmldom.Ref { return n.rec.At(n.ord) }

// at returns the node of n's record that x refers to.
func (n Node) at(x xmldom.Ref) Node { return Node{n.rec, x.Ord(), n.doc} }

// Collection is the document set a query runs against.
type Collection struct {
	docs   []*xmldom.Record
	byName map[string]int // document name -> position in docs
}

// NewCollection returns an empty collection.
func NewCollection() *Collection {
	return &Collection{byName: map[string]int{}}
}

// Add registers an opened record, whose root is a document node, under a
// name (e.g. its file name). A parsed tree joins through xmldom.RecordOf.
func (c *Collection) Add(name string, doc *xmldom.Record) {
	c.byName[name] = len(c.docs)
	c.docs = append(c.docs, doc)
}

// root returns the root node of document i.
func (c *Collection) root(i int) Node { return Node{rec: c.docs[i], doc: int32(i)} }

// roots returns the root node of every document, in collection order.
func (c *Collection) roots() Seq {
	out := make(Seq, len(c.docs))
	for i := range c.docs {
		out[i] = c.root(i)
	}
	return out
}

// Query is a compiled XQuery expression. It is immutable: one Query may be
// evaluated from many goroutines at once.
type Query struct {
	root expr
}

// EvalWithVars runs the query against a collection with externally bound
// variables (the workload binds query parameters like $X this way).
func (q *Query) EvalWithVars(coll *Collection, vars map[string]Seq) (Seq, error) {
	ctx := &evalCtx{coll: coll, run: &evalRun{built: int32(len(coll.docs))}}
	for k, v := range vars {
		ctx.vars = ctx.vars.bind(k, v)
	}
	return evalExpr(ctx, q.root)
}

// scope is a chain of variable bindings, innermost first. Binding a
// variable allocates one link; entering a predicate or a quantifier body
// allocates nothing, since the inner context shares the chain.
type scope struct {
	name   string
	val    Seq
	parent *scope
}

func (s *scope) bind(name string, val Seq) *scope {
	return &scope{name: name, val: val, parent: s}
}

func (s *scope) lookup(name string) (Seq, bool) {
	for ; s != nil; s = s.parent {
		if s.name == name {
			return s.val, true
		}
	}
	return nil, false
}

// evalRun is what one evaluation's contexts share.
type evalRun struct {
	built int32 // doc number the next constructed element takes
	args  []Seq // argument values of the calls being evaluated (evalCall)
}

type evalCtx struct {
	coll *Collection
	run  *evalRun
	vars *scope
	item Item // context item ('.')
}

func evalExpr(ctx *evalCtx, e expr) (Seq, error) {
	switch t := e.(type) {
	case literal:
		if t.isNum {
			return Seq{t.num}, nil
		}
		return Seq{t.str}, nil
	case varRef:
		v, ok := ctx.vars.lookup(t.name)
		if !ok {
			return nil, &Error{Msg: fmt.Sprintf("undefined variable $%s", t.name)}
		}
		return v, nil
	case contextItem:
		if ctx.item == nil {
			return nil, &Error{Msg: "context item is undefined"}
		}
		return Seq{ctx.item}, nil
	case binary:
		return evalBinary(ctx, t)
	case call:
		return evalCall(ctx, t)
	case pathExpr:
		return evalPath(ctx, t)
	case flwor:
		return evalFLWOR(ctx, t)
	case quantified:
		return evalQuantified(ctx, t)
	case elemCtor:
		n, err := evalCtor(ctx, t)
		if err != nil {
			return nil, err
		}
		return Seq{n}, nil
	}
	return nil, &Error{Msg: fmt.Sprintf("unhandled expression %T", e)}
}

// evalBinary evaluates 'and' or a general comparison, which is
// existential over both sequences.
func evalBinary(ctx *evalCtx, b binary) (Seq, error) {
	l, err := evalExpr(ctx, b.l)
	if err != nil {
		return nil, err
	}
	if b.op == "and" && !ebv(l) {
		return Seq{false}, nil
	}
	r, err := evalExpr(ctx, b.r)
	if err != nil {
		return nil, err
	}
	if b.op == "and" {
		return Seq{ebv(r)}, nil
	}
	for _, li := range l {
		for _, ri := range r {
			if compareItems(li, ri, b.op) {
				return Seq{true}, nil
			}
		}
	}
	return Seq{false}, nil
}

// compareItems applies op to two atomized items. If both atomize to
// numbers the comparison is numeric, otherwise lexicographic — which is
// correct for the benchmark's ISO dates.
func compareItems(a, b Item, op string) bool {
	if af, ok := toNumber(a); ok {
		if bf, ok := toNumber(b); ok {
			switch op {
			case "=":
				return af == bf
			case "!=":
				return af != bf
			case "<":
				return af < bf
			case "<=":
				return af <= bf
			case ">":
				return af > bf
			case ">=":
				return af >= bf
			}
		}
	}
	c := compareAtoms(a, b)
	switch op {
	case "=":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

// compareAtoms orders the string values of two items. A node's value is
// compared where it lies in its record; no string is made for it.
func compareAtoms(a, b Item) int {
	an, aNode := a.(Node)
	bn, bNode := b.(Node)
	switch {
	case aNode && bNode:
		return bytes.Compare(an.ref().Text(), bn.ref().Text())
	case aNode:
		return compareText(an.ref().Text(), atomize(b))
	case bNode:
		return -compareText(bn.ref().Text(), atomize(a))
	}
	return strings.Compare(atomize(a), atomize(b))
}

func compareText(b []byte, s string) int {
	switch {
	case string(b) < s:
		return -1
	case string(b) > s:
		return 1
	}
	return 0
}

func evalFLWOR(ctx *evalCtx, f flwor) (Seq, error) {
	tuples := []*evalCtx{ctx}
	for _, cl := range f.clauses {
		var next []*evalCtx
		for _, tu := range tuples {
			src, err := evalExpr(tu, cl.src)
			if err != nil {
				return nil, err
			}
			for _, item := range src {
				nt := *tu
				nt.vars = tu.vars.bind(cl.varName, Seq{item})
				next = append(next, &nt)
			}
		}
		tuples = next
	}
	if f.where != nil {
		var kept []*evalCtx
		for _, tu := range tuples {
			w, err := evalExpr(tu, f.where)
			if err != nil {
				return nil, err
			}
			if ebv(w) {
				kept = append(kept, tu)
			}
		}
		tuples = kept
	}
	if f.orderBy != nil {
		type keyed struct {
			tu  *evalCtx
			key Item // nil for an empty key
		}
		ks := make([]keyed, len(tuples))
		for i, tu := range tuples {
			kv, err := evalExpr(tu, f.orderBy)
			if err != nil {
				return nil, err
			}
			ks[i].tu = tu
			if len(kv) > 0 {
				ks[i].key = kv[0]
			}
		}
		sort.SliceStable(ks, func(i, j int) bool { return compareKeys(ks[i].key, ks[j].key) < 0 })
		for i := range ks {
			tuples[i] = ks[i].tu
		}
	}
	var out Seq
	for _, tu := range tuples {
		r, err := evalExpr(tu, f.ret)
		if err != nil {
			return nil, err
		}
		out = append(out, r...)
	}
	return out, nil
}

// compareKeys orders two order-by keys: nil (empty) first, numeric when
// both are numbers, string otherwise.
func compareKeys(a, b Item) int {
	if a == nil || b == nil {
		switch {
		case a == nil && b == nil:
			return 0
		case a == nil:
			return -1
		default:
			return 1
		}
	}
	af, aok := toNumber(a)
	bf, bok := toNumber(b)
	if aok && bok {
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	return compareAtoms(a, b)
}

func evalQuantified(ctx *evalCtx, q quantified) (Seq, error) {
	src, err := evalExpr(ctx, q.src)
	if err != nil {
		return nil, err
	}
	nt := *ctx
	for _, item := range src {
		nt.vars = ctx.vars.bind(q.varName, Seq{item})
		c, err := evalExpr(&nt, q.cond)
		if err != nil {
			return nil, err
		}
		if q.every {
			if !ebv(c) {
				return Seq{false}, nil
			}
		} else if ebv(c) {
			return Seq{true}, nil
		}
	}
	return Seq{q.every}, nil
}

// evalCtor builds the constructed element as a tree — the one place the
// evaluator materializes nodes: the subtrees the constructor copies — and
// opens its encoding, so the result is a Node like any other. It takes
// the next document number after the collection, which keeps constructed
// elements in construction order behind every stored document.
func evalCtor(ctx *evalCtx, c elemCtor) (Node, error) {
	el, err := buildCtor(ctx, c)
	if err != nil {
		return Node{}, err
	}
	rec, err := xmldom.RecordOf(el)
	if err != nil {
		return Node{}, &Error{Msg: fmt.Sprintf("element constructor <%s>: %v", c.name, err)}
	}
	n := Node{rec: rec, doc: ctx.run.built}
	ctx.run.built++
	return n, nil
}

func buildCtor(ctx *evalCtx, c elemCtor) (*xmldom.Node, error) {
	el := xmldom.NewElement(c.name)
	for _, a := range c.attrs {
		var b strings.Builder
		for _, part := range a.parts {
			switch pt := part.(type) {
			case string:
				b.WriteString(pt)
			case expr:
				s, err := evalExpr(ctx, pt)
				if err != nil {
					return nil, err
				}
				for i, item := range s {
					if i > 0 {
						b.WriteByte(' ')
					}
					b.WriteString(atomize(item))
				}
			}
		}
		el.SetAttr(a.name, b.String())
	}
	for _, part := range c.content {
		switch pt := part.(type) {
		case string:
			el.AddText(pt)
		case elemCtor:
			// A nested constructor joins as a tree, not through a record.
			child, err := buildCtor(ctx, pt)
			if err != nil {
				return nil, err
			}
			el.Append(child)
		case expr:
			s, err := evalExpr(ctx, pt)
			if err != nil {
				return nil, err
			}
			prevAtomic := false
			for _, item := range s {
				if n, ok := item.(Node); ok {
					el.Append(n.ref().Node())
					prevAtomic = false
					continue
				}
				if prevAtomic {
					el.AddText(" ")
				}
				el.AddText(atomize(item))
				prevAtomic = true
			}
		}
	}
	return el, nil
}

// ebv computes the effective boolean value of a sequence.
func ebv(s Seq) bool {
	if len(s) == 0 {
		return false
	}
	if _, isNode := s[0].(Node); isNode {
		return true
	}
	if len(s) > 1 {
		return true
	}
	switch v := s[0].(type) {
	case bool:
		return v
	case float64:
		return v != 0
	case string:
		return v != ""
	}
	return true
}

// atomize returns the string value of an item.
func atomize(it Item) string {
	switch v := it.(type) {
	case nil:
		return ""
	case Node:
		return string(v.ref().Text())
	case string:
		return v
	case float64:
		return FormatNumber(v)
	case bool:
		if v {
			return "true"
		}
		return "false"
	}
	return fmt.Sprint(it)
}

// FormatNumber renders a number the way atomization does; the relational
// engines use it so aggregate results compare byte-for-byte with the
// native engine's.
func FormatNumber(f float64) string {
	if f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// toNumber attempts numeric atomization.
func toNumber(it Item) (float64, bool) {
	switch v := it.(type) {
	case float64:
		return v, true
	case bool:
		if v {
			return 1, true
		}
		return 0, true
	case Node:
		b := bytes.TrimSpace(v.ref().Text())
		if !numberStart(b) {
			return 0, false
		}
		// The conversion does not escape ParseFloat, so a short value is
		// parsed from a stack copy.
		f, err := strconv.ParseFloat(string(b), 64)
		return f, err == nil
	default:
		s := strings.TrimSpace(atomize(it))
		if !numberStart(s) {
			return 0, false
		}
		f, err := strconv.ParseFloat(s, 64)
		return f, err == nil
	}
}

// numberStart reports whether s begins the way a string ParseFloat
// accepts must (a digit, sign or point, "in" of infinity, "na" of nan,
// in either case). Comparing identifiers and words would otherwise build
// and drop a ParseFloat error per value.
func numberStart[S string | []byte](s S) bool {
	if len(s) == 0 {
		return false
	}
	switch c := s[0]; {
	case c >= '0' && c <= '9', c == '+', c == '-', c == '.':
		return true
	case c|0x20 == 'i':
		return len(s) > 1 && s[1]|0x20 == 'n'
	case c|0x20 == 'n':
		return len(s) > 1 && s[1]|0x20 == 'a'
	}
	return false
}

func seqNumber(s Seq) (float64, error) {
	if len(s) == 0 {
		return 0, &Error{Msg: "empty sequence where a number is required"}
	}
	n, ok := toNumber(s[0])
	if !ok {
		return 0, &Error{Msg: fmt.Sprintf("cannot cast %q to a number", atomize(s[0]))}
	}
	return n, nil
}

// SerializeSeq renders a result sequence as strings, one per item: nodes
// as XML written straight from their record, atomics as their string
// value. This is what engines put into core.Result.Items.
func SerializeSeq(s Seq) []string {
	out := make([]string, len(s))
	for i, item := range s {
		if n, ok := item.(Node); ok {
			out[i] = n.ref().XML()
		} else {
			out[i] = atomize(item)
		}
	}
	return out
}
