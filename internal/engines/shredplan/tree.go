package shredplan

import (
	"fmt"
	"slices"
	"strings"

	"xbench/internal/core"
	"xbench/internal/plan"
	"xbench/internal/relational"
	"xbench/internal/shredder"
)

// op is what a Node does with the rows of its kids.
type op int

const (
	opProbe  op = iota // the primary equality, along the plan's access path, with its pushed limit
	opRange            // the primary range, along the plan's access path
	opScan             // every row of a table
	opLookup           // the rows of a table whose key is a column of an outer row, by the key index or a seek
	opFilter           // the rows of kid 0 that pass pred
	opSemi             // the outer kid's rows whose key the other kids marked
	opJoin             // each row of kid 0 joined to the rows kid 1, a lookup, finds for it
	opAgg              // an aggregate of kid 0's rows
	opSort             // kid 0's rows in key order
	opLimit            // the first n rows of kid 0
	opEmit             // the answer: an item per row of kid 0, written by tmpl; kids 1.. are lookups
	opClob             // per row of kid 0, the elements down path in the CLOB its doc column names
	opCLOBs            // the elements down path in every CLOB holding a word, in heap address order
)

// column is a column named in a tree and its position in the rows it is
// read from, resolved when the tree is built.
type column struct {
	name string
	i    int
}

// col resolves name among cols; a tree naming a column its input does not
// have, or has twice, is a translation bug, and panics when the table is
// built.
func col(cols []string, name string) column {
	i := slices.Index(cols, name)
	if i < 0 || slices.Contains(cols[i+1:], name) {
		panic(fmt.Sprintf("shredplan: %q is not one column of %v", name, cols))
	}
	return column{name, i}
}

// Node is one operator of a query's tree. Which fields an operator reads
// is listed beside them; cols is every node's: the columns of the rows it
// hands on.
type Node struct {
	op    op
	cols  []string
	table string // probe, range, scan, lookup: the table read
	key   column // probe, range, lookup: the matched column; agg: the aggregated one
	// probe: the key's parameter ("$X"); range: the bounds' ("$LO", "$HI").
	params []string
	// probe: take the plan's pushed-down limit (a limit 1 sits on it).
	pushed bool
	// lookup: the outer row's column the key must equal; clob: kid 0's doc column.
	on   column
	when column // lookup: run only for outer rows where it is not NULL (unnamed: always)
	seq  bool   // lookup: a seek, filtering the table whatever its indexes
	// clob, clobs: the elements from the root down, and what a row takes
	// of each chain of them.
	path  []string
	picks []pick
	// filter: the test; lookup: a test on the rows found; semi: the
	// outer's own test (outer first) or every marking row's (every).
	pred  *pred
	keys  []column // semi: each kid's key column
	outer int      // semi: which kid is emitted — the first or the last
	every bool     // semi: a key counts only if pred holds for all its rows
	agg   aggKind
	sort  []relational.SortKey // with keys naming their columns
	n     int                  // limit; a seek's, when > 0
	tmpl  *tmpl                // emit
	// emit: the items are fragments rebuilt from their rows, written in the
	// materialize phase.
	rebuild bool
	kids    []*Node
	label   core.PlanNode // the node as Explain prints it, before ph's decisions
}

// aggKind is what an aggregate computes.
type aggKind int

const (
	aggSum      aggKind = iota // one row: the sum of the numbers in key
	aggAvg                     // one row: their mean, none without numbers
	aggCount                   // a row (key, count) per distinct non-NULL key
	aggDistinct                // kid 0's rows, the first of each key
)

// pick is a column a clob row takes from the chain of elements its path
// matched, named by the XPath of what it holds from the root element: an
// element serialized ("order/total"), its string value
// ("string(order/customer_id)"), or an attribute of it, "" where absent
// ("order/@id").
type pick struct {
	step int // the element's place in the chain
	kind pickKind
	attr string
}

type pickKind int

const (
	pickXML pickKind = iota
	pickText
	pickAttr
)

// picksOf resolves specs against path, each naming one of its elements.
func picksOf(path string, specs []string) []pick {
	var ps []pick
	for _, s := range specs {
		p, elem := pick{kind: pickXML}, s
		if in, ok := strings.CutPrefix(s, "string("); ok {
			p.kind, elem = pickText, strings.TrimSuffix(in, ")")
		} else if e, a, ok := strings.Cut(s, "/@"); ok {
			p.kind, p.attr, elem = pickAttr, a, e
		}
		if p.step = strings.Count(elem, "/"); path != elem && !strings.HasPrefix(path, elem+"/") {
			panic(fmt.Sprintf("shredplan: %q names no element of %s", s, path))
		}
		ps = append(ps, p)
	}
	return ps
}

// The node constructors, in the vocabulary of the table in trees.go. Each labels
// its node as Explain prints it.

func probe(table, key, param string) *Node {
	cols := shredder.Columns(table)
	return &Node{op: opProbe, cols: cols, table: table, key: col(cols, key), params: []string{param},
		label: core.PlanNode{Op: "scan", Target: table, Detail: key + " = " + param}}
}

func rng(table, key, lo, hi string) *Node {
	cols := shredder.Columns(table)
	return &Node{op: opRange, cols: cols, table: table, key: col(cols, key), params: []string{lo, hi},
		label: core.PlanNode{Op: "scan", Target: table, Detail: fmt.Sprintf("%s in [%s..%s]", key, lo, hi)}}
}

func scan(table string) *Node {
	return &Node{op: opScan, cols: shredder.Columns(table), table: table,
		label: core.PlanNode{Op: "scan", Target: table, Detail: "sequential"}}
}

// lookup finds, for an outer row, the rows of table whose key equals the
// outer row's column on. emit and join resolve on against their rows.
func lookup(table, key, on string) *Node {
	cols := shredder.Columns(table)
	return &Node{op: opLookup, cols: cols, table: table, key: col(cols, key), on: column{name: on},
		label: core.PlanNode{Op: "index-probe", Target: table + "." + key, Detail: key + " = " + on}}
}

// seek is lookup by a sequential filter of table, whatever its indexes —
// a side table the DAD gives no index on key — stopping at the first
// limit rows when limit > 0.
func seek(table, key, on string, limit int) *Node {
	n := lookup(table, key, on)
	n.seq, n.n, n.label.Op, n.label.Target = true, limit, "scan", table
	if limit > 0 {
		n.label.Detail += fmt.Sprintf(", limit %d", limit)
	}
	return n
}

// where keeps only the rows the lookup n finds that pass p.
func (n *Node) where(p *pred) *Node {
	p.resolve(n.cols)
	n.pred = p
	n.label.Detail += " and " + p.String()
	return n
}

// ifNotNull runs the lookup n only for outer rows whose column c is not
// NULL.
func (n *Node) ifNotNull(c string) *Node {
	n.when = column{name: c}
	n.label.Detail += " if " + c + " is not null"
	return n
}

// outerOf resolves the lookup n's outer columns among the outer rows'.
func (n *Node) outerOf(cols []string) {
	n.on = col(cols, n.on.name)
	if n.when.name != "" {
		n.when = col(cols, n.when.name)
	}
}

func filter(p *pred, kid *Node) *Node {
	p.resolve(kid.cols)
	return &Node{op: opFilter, cols: kid.cols, pred: p, kids: []*Node{kid},
		label: core.PlanNode{Op: "filter", Detail: p.String()}}
}

// semi emits the rows of its last kid whose key (the last of keys) some
// row of the kids before it marked by theirs.
func semi(keys []string, kids ...*Node) *Node {
	last := len(kids) - 1
	n := &Node{op: opSemi, cols: kids[last].cols, outer: last, kids: kids,
		label: core.PlanNode{Op: "semi-join", Detail: keys[last] + " in " + strings.Join(keys[:last], ", ")}}
	for i, k := range keys {
		n.keys = append(n.keys, col(kids[i].cols, k))
	}
	return n
}

// semiEvery is semi where a key counts only if p holds for every row that
// marks it.
func semiEvery(p *pred, keys []string, kids ...*Node) *Node {
	n := semi(keys, kids...)
	p.resolve(kids[0].cols)
	n.every, n.pred = true, p
	n.label.Detail += " where every " + p.String()
	return n
}

// semiOr reads its first kid first and emits its rows that pass p or
// whose key the later kids marked.
func semiOr(p *pred, keys []string, kids ...*Node) *Node {
	n := semi(keys, kids...)
	p.resolve(kids[0].cols)
	n.cols, n.outer, n.pred = kids[0].cols, 0, p
	n.label.Detail = keys[0] + " in " + strings.Join(keys[1:], ", ") + " or " + p.String()
	return n
}

// join pairs each outer row with the rows its lookup in finds: the joined
// row holds the outer's columns, then the inner's.
func join(outer, in *Node) *Node {
	in.outerOf(outer.cols)
	n := &Node{op: opJoin, cols: append(slices.Clone(outer.cols), in.cols...), kids: []*Node{outer, in},
		label: core.PlanNode{Op: "join", Target: in.table, Detail: "index-nested-loop"}}
	if in.seq {
		n.label.Detail = "nested-loop"
	}
	return n
}

func agg(kind aggKind, key string, kid *Node) *Node {
	n := &Node{op: opAgg, cols: []string{key}, key: col(kid.cols, key), agg: kind, kids: []*Node{kid},
		label: core.PlanNode{Op: "aggregate", Target: [...]string{"sum", "avg", "count", "distinct"}[kind] + "(" + key + ")"}}
	switch kind {
	case aggCount:
		n.cols = []string{key, "count"}
	case aggDistinct:
		n.cols = kid.cols
	}
	return n
}

// sortBy orders kid's rows by keys, the first first; "#id" orders by the
// number ending the id column, document order.
func sortBy(kid *Node, keys ...string) *Node {
	n := &Node{op: opSort, cols: kid.cols, kids: []*Node{kid}, label: core.PlanNode{Op: "sort"}}
	var shown []string
	for _, k := range keys {
		name, suffix := strings.CutPrefix(k, "#")
		n.sort = append(n.sort, relational.SortKey{Col: col(kid.cols, name).i, IDSuffix: suffix})
		if suffix {
			name = "id-suffix(" + name + ")"
		}
		shown = append(shown, name)
	}
	n.label.Detail = "order by " + strings.Join(shown, ", ")
	return n
}

// head is a limit 1 that no probe below it takes: the first of the rows
// it fetches.
func head(kid *Node) *Node {
	return &Node{op: opLimit, cols: kid.cols, n: 1, kids: []*Node{kid}, label: core.PlanNode{Op: "limit", Target: "1"}}
}

// first is a limit 1. Over the primary probe it is the positional [1] the
// planner may push down: the probe then stops at the plan's limit.
func first(kid *Node) *Node {
	kid.pushed = kid.op == opProbe
	return head(kid)
}

// clob fetches and parses, for each row of kid, the CLOB its doc column
// names, and hands on a row per chain of elements down path from the root
// element, in document order: kid's columns, then one per pick — by
// default the last element serialized, named path.
func clob(path string, kid *Node, picks ...string) *Node {
	if len(picks) == 0 {
		picks = []string{path}
	}
	n := clobNode(path, append(slices.Clone(kid.cols), picks...), picks)
	n.op, n.on, n.kids = opClob, col(kid.cols, "doc"), []*Node{kid}
	n.label.Op = "clob"
	return n
}

// clobs is the pass over every CLOB in heap address order (load order
// until an update reuses a deleted CLOB's space) that parses only those
// whose raw bytes hold the word param, handing on clob's rows of them
// with the CLOB as the doc column.
func clobs(param, path string, picks ...string) *Node {
	n := clobNode(path, append([]string{"doc"}, picks...), picks)
	n.op, n.params = opCLOBs, []string{param}
	n.label.Op, n.label.Detail = "clobs", "holding "+param+": "+n.label.Detail
	return n
}

// clobNode is the node of a clob or clobs.
func clobNode(path string, cols, picks []string) *Node {
	return &Node{cols: cols, path: strings.Split(path, "/"), picks: picksOf(path, picks),
		label: core.PlanNode{Target: path, Detail: strings.Join(picks, ", ")}}
}

// emit writes an item per row of kid through t; lookups, made from each
// row before its item is written, feed t's each elements in order.
func emit(t *tmpl, kid *Node, lookups ...*Node) *Node {
	in := make([][]string, len(lookups))
	for i, l := range lookups {
		l.outerOf(kid.cols)
		in[i] = l.cols
	}
	t.resolve(kid.cols, in)
	return &Node{op: opEmit, cols: kid.cols, tmpl: t, kids: append([]*Node{kid}, lookups...),
		label: core.PlanNode{Op: "construct", Target: t.String()}}
}

// rebuild is emit for items that reconstruct a stored fragment.
func rebuild(t *tmpl, kid *Node, lookups ...*Node) *Node {
	n := emit(t, kid, lookups...)
	n.rebuild, n.label.Detail = true, "reconstruct"
	return n
}

// plan draws the tree as Explain prints it: the nodes' labels, with the
// decisions of ph the tree executes — the access path and cost of the
// primary probe or range (or the cost of the pass over the CLOBs), and a
// limit pushed into the probe.
func (n *Node) plan(ph *plan.Physical) *core.PlanNode {
	p := n.label
	switch {
	case n.op == opProbe || n.op == opRange:
		if ph.Access != plan.AccessScan {
			p.Op, p.Target = "index-probe", n.table+"."+n.key.name
		}
		fallthrough
	case n.op == opCLOBs:
		p.EstPages, p.EstRows = ph.EstCost, ph.EstRows
	case n.op == opLimit && n.kids[0].pushed && ph.Limit > 0:
		p.Detail = "limit-pushdown"
	}
	for _, k := range n.kids {
		p.Children = append(p.Children, k.plan(ph))
	}
	return &p
}
