package xquery

import (
	"bytes"
	"cmp"
	"context"
	"strconv"
	"strings"

	"xbench/internal/xmldom"
)

// kind is what an Item holds.
type kind uint8

const (
	kNone kind = iota // no item: no focus, an unbound variable, an empty sort key
	kNode             // a node: rec, ord, doc
	kAttr             // a string: the value of attribute str of element rec/ord
	kText             // a string: the string value of node rec/ord
	kStr              // a string: str
	kNum              // a number: num
	kBool             // a boolean: num is 1 or 0
)

// Item is one value of a sequence, held by value so that no evaluation
// boxes it. A node is a position in an opened binary-DOM record, and
// (doc, ord) its place in document order across the collection; two nodes
// are the same node exactly when they are equal. A string read from a
// record stays where it lies until a Go string is needed.
type Item struct {
	rec   *xmldom.Record
	ord   int32 // position in rec's document order
	doc   int32 // collection position; constructed elements follow the collection
	kind  kind
	isNum bool    // num holds the item's number: set on comparison operands and sort keys
	str   string  // kStr: the string; kAttr: the attribute's name
	num   float64 // kNum, kBool
}

// Seq is an ordered sequence of items (the XQuery data model).
type Seq []Item

func str(s string) Item  { return Item{kind: kStr, str: s} }
func num(f float64) Item { return Item{kind: kNum, num: f} }

func (it Item) ref() xmldom.Ref { return it.rec.At(it.ord) }

// bytes returns the string value of a node, or of a string read from a
// record, where it lies; ok is false for any other item.
func (it Item) bytes() (b []byte, ok bool) {
	switch it.kind {
	case kNode, kText:
		return it.ref().Text(), true
	case kAttr:
		v, _ := it.ref().Attr(it.str)
		return v, true
	}
	return nil, false
}

// appendText appends the item's string value to dst.
func (it Item) appendText(dst []byte) []byte {
	if b, ok := it.bytes(); ok {
		return append(dst, b...)
	}
	switch it.kind {
	case kNum:
		return append(dst, FormatNumber(it.num)...)
	case kBool:
		return strconv.AppendBool(dst, it.num != 0)
	}
	return append(dst, it.str...)
}

// text returns the item's string value (atomization) as a Go string.
func (it Item) text() string {
	if it.kind == kStr {
		return it.str
	}
	return string(it.appendText(nil))
}

// number converts the item to a number as atomization does: a boolean is
// 1 or 0, a string a number when ParseFloat takes it but surrounding space.
func (it Item) number() (float64, bool) {
	if it.kind == kNum || it.kind == kBool {
		return it.num, true
	}
	if b, ok := it.bytes(); ok {
		if b = bytes.TrimSpace(b); !numeric(b) {
			return 0, false
		}
		// The conversion does not escape ParseFloat: a short value is
		// parsed from a stack copy.
		f, err := strconv.ParseFloat(string(b), 64)
		return f, err == nil
	}
	if s := strings.TrimSpace(it.str); numeric(s) {
		f, err := strconv.ParseFloat(s, 64)
		return f, err == nil
	}
	return 0, false
}

// numeric reports whether ParseFloat may take s: digits, letters, '.', '_',
// a letter first only in "in"f or "na"n, a sign first or after e or p.
// Dates, ids and words fail here, not in ParseFloat, which allocates.
func numeric[S string | []byte](s S) bool {
	for i := range len(s) {
		switch c := s[i] | 0x20; {
		case c >= 'a' && c <= 'z':
			if i == 0 && !(len(s) > 1 && (c == 'i' && s[1]|0x20 == 'n' || c == 'n' && s[1]|0x20 == 'a')) {
				return false
			}
		case s[i] == '+' || s[i] == '-':
			if i > 0 && s[i-1]|0x20 != 'e' && s[i-1]|0x20 != 'p' {
				return false
			}
		case !(s[i] >= '0' && s[i] <= '9' || s[i] == '.' || s[i] == '_'):
			return false
		}
	}
	return len(s) > 0
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

// ebv computes the effective boolean value of a sequence.
func ebv(s Seq) bool {
	switch {
	case len(s) == 0:
		return false
	case s[0].kind == kNode || len(s) > 1:
		return true
	case s[0].kind == kNum || s[0].kind == kBool:
		return s[0].num != 0
	}
	b, inRec := s[0].bytes()
	return len(b) > 0 || !inRec && s[0].str != ""
}

// compareAtoms orders the string values of two items (-1, 0, 1). A value
// that lies in a record is compared there; no string is made for it.
func compareAtoms(a, b Item) int {
	ab, aIn := a.bytes()
	bb, bIn := b.bytes()
	switch {
	case aIn && bIn:
		return bytes.Compare(ab, bb)
	case aIn: // cmp.Compare, inlined, compares a short value from the stack
		return cmp.Compare(string(ab), b.text())
	case bIn:
		return cmp.Compare(a.text(), string(bb))
	}
	return cmp.Compare(a.text(), b.text())
}

// SerializeSeq renders a result sequence as strings, one per item: nodes
// as XML written straight from their record, atomics as their string
// value. This is what engines put into core.Result.Items.
func SerializeSeq(s Seq) []string {
	out := make([]string, len(s))
	for i, it := range s {
		if it.kind == kNode {
			out[i] = it.ref().XML()
		} else {
			out[i] = it.text()
		}
	}
	return out
}

// Collection is the document set a query runs against.
type Collection struct {
	docs  []*xmldom.Record
	names map[string]int // the documents added with a name, for doc()
}

// NewCollection returns an empty collection.
func NewCollection() *Collection { return &Collection{names: map[string]int{}} }

// Add appends an opened record, whose root is a document node. doc()
// finds it by a name other than ""; a query that does not call doc()
// needs none.
func (c *Collection) Add(name string, doc *xmldom.Record) {
	if name != "" {
		c.names[name] = len(c.docs)
	}
	c.docs = append(c.docs, doc)
}

// Reset empties the collection for reuse, keeping what it has grown to.
func (c *Collection) Reset() {
	clear(c.docs)
	clear(c.names)
	c.docs = c.docs[:0]
}

func (c *Collection) root(i int) Item { return Item{rec: c.docs[i], doc: int32(i), kind: kNode} }

// Query is a parsed XQuery expression compiled to a tree of closures. It is
// immutable: many goroutines may evaluate it at once, each on its own run.
type Query struct {
	root   expr
	eval   fn
	params []binding // the external variables' slots
	nslots int
	nbufs  int
	names  []string       // the names the steps test
	runs   chan *runState // idle runs
}

// runState is what one evaluation owns: slots, scratch sequences, and per
// name its dictionary indexes in the record last resolved. Idle runs wait
// in a channel, not a sync.Pool, which would drop them at garbage
// collection and at random under the race detector, unpinning allocations.
type runState struct {
	ctx   context.Context
	coll  *Collection
	built int32 // doc number the next constructed element takes
	slots []Item
	bufs  []Seq
	names []resolved
}

type resolved struct {
	rec *xmldom.Record
	ids []int32
}

// Eval runs the query over coll with the external variables bound to vars
// (query parameters like $X). FLWOR, quantifier and descendant-step loops
// check ctx at their heads: a cancelled evaluation stops within a document.
func (q *Query) Eval(ctx context.Context, coll *Collection, vars map[string]string) (Seq, error) {
	var r *runState
	select {
	case r = <-q.runs:
	default:
		r = &runState{slots: make([]Item, q.nslots), bufs: make([]Seq, q.nbufs), names: make([]resolved, len(q.names))}
	}
	r.ctx, r.coll, r.built = ctx, coll, int32(len(coll.docs))
	for _, p := range q.params {
		if v, ok := vars[p.name]; ok {
			r.slots[p.slot] = str(v)
		}
	}
	out, err := q.eval(r, Item{}, nil)
	// An idle run keeps no record alive.
	r.ctx, r.coll = nil, nil
	clear(r.slots)
	for i := range r.bufs {
		clear(r.bufs[i][:cap(r.bufs[i])])
	}
	for i := range r.names {
		r.names[i].rec = nil
	}
	select {
	case q.runs <- r:
	default:
	}
	return out, err
}
