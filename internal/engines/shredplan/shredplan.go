// Package shredplan is how the relational engine answers queries: its
// shredding policies (DB2 Xcollection and SQL Server) over the tables
// internal/shredder decomposes documents into, and DB2 Xcolumn over the
// side tables of its DAD and the CLOBs that hold its documents intact.
// Each query the paper's authors translated by hand (§3.2: "the query
// translations from XQuery to their own languages ... were done by us") is
// an operator tree in one table (trees.go), keyed by mapping, class and
// query: a primary probe, range or scan that takes the plan's access path,
// key-index lookups and seeks, filters on the stored columns, key-set
// semi-joins, joins, aggregates, sort, limit, Xcolumn's CLOB fetch and
// text-search pass, and an emit that writes each answer item from rows
// through a template. Exec walks the tree and Explain prints the same
// tree, so what an engine explains is what it executes.
//
// Emitting is where shredding hurts: order is only insertion order
// (flagged OrderGuaranteed=false for order-sensitive queries), mixed
// content is flattened or lost, and structure that did not survive the
// mapping (qp groupings, nested paragraphs) cannot be rebuilt — the
// §3.2.2 caveat. Xcolumn's items are elements of the parsed CLOBs,
// serialized as stored.
package shredplan

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"time"

	"xbench/internal/core"
	"xbench/internal/metrics"
	"xbench/internal/pager"
	"xbench/internal/plan"
	"xbench/internal/relational"
	"xbench/internal/xmldom"
	"xbench/internal/xmlschema"
	"xbench/internal/xquery"
)

// Source is what a tree reads: a store's tables at one epoch and, under
// the DAD, its CLOBs.
type Source struct {
	// Mapping is the store's, and picks the trees that translate its
	// queries.
	Mapping xmlschema.Mapping
	Class   core.Class
	DB      *relational.DBView
	// DropMixed is a shredded store's: mixed content's text was not stored.
	DropMixed bool
	// CLOBs is an Xcolumn store's document heap, RIDs its CLOBs in load
	// order.
	CLOBs pager.HeapView
	RIDs  []pager.RID
}

// Exec runs the tree of ph's query over s, its primary probe or range
// along ph's access path.
func Exec(ctx context.Context, s Source, ph *plan.Physical, p core.Params) (core.Result, error) {
	return exec(ctx, s, ph, p, nil)
}

// Explain renders the tree Exec runs for ph's query over a store of
// mapping m and class.
func Explain(m xmlschema.Mapping, class core.Class, ph *plan.Physical) (*core.PlanNode, error) {
	root := trees[m][cell{class, ph.Def.ID}]
	if root == nil {
		return nil, core.ErrNoQuery
	}
	return root.plan(ph), nil
}

// exec is Exec, calling entered, when set, with every node it enters.
func exec(ctx context.Context, s Source, ph *plan.Physical, p core.Params, entered func(*Node)) (core.Result, error) {
	root := trees[s.Mapping][cell{s.Class, ph.Def.ID}]
	if root == nil {
		return core.Result{}, core.ErrNoQuery
	}
	var x *run
	select {
	case x = <-runs:
	default:
		x = &run{enc: xmldom.NewFragment()}
	}
	x.ctx, x.s, x.ph, x.p, x.entered = ctx, s, ph, p, entered
	err := x.emit(root)
	items := x.items
	x.done()
	if err != nil {
		return core.Result{}, err
	}
	return core.Result{
		Items: items,
		// dxx_seqno and the intact CLOBs preserve document order (§3.2.2:
		// "DB2/Xcolumn can keep track of ordering information by using
		// dxx_seqno"); the shredded tables keep none.
		OrderGuaranteed:  s.Mapping == xmlschema.DAD || !ph.Def.OrderSensitive,
		MixedContentLost: ph.Def.TouchesMixed && s.DropMixed,
	}, nil
}

// run is one execution of a tree.
type run struct {
	ctx     context.Context
	s       Source
	ph      *plan.Physical
	p       core.Params
	items   []string
	err     error // the first error met inside a callback, which stopped the walk
	entered func(*Node)
	// The buffers, kept from run to run: emit writes items with enc; a
	// CLOB is parsed into doc, and a clob's row is written into row, a
	// pick into val, down chain, each valid until the next. A tree holds
	// one clob or clobs at most, so one doc serves the run.
	enc   *xmldom.Encoder
	doc   xmldom.Record
	row   relational.Rec
	val   bytes.Buffer
	chain []xmldom.Ref
}

// runs holds a few finished runs, whose buffers the next executions
// reuse, as xquery.Query keeps its idle runs: four cover the queries the
// benchmark's clients run at once, and an execution beyond them makes a
// run of its own.
var runs = make(chan *run, 4)

// done drops what the run read and answered and hands it back to runs.
func (x *run) done() {
	x.ctx, x.s, x.ph, x.p, x.items, x.err, x.entered = nil, Source{}, nil, nil, nil, nil, nil
	select {
	case runs <- x:
	default:
	}
}

func (x *run) enter(n *Node) {
	if x.entered != nil {
		x.entered(n)
	}
}

// fail records err and stops the walk of the callback returning it.
func (x *run) fail(err error) bool {
	x.err = err
	return false
}

// emit writes the answer: for each row of the root's input, the rows its
// lookups find, then the item its template writes from them.
func (x *run) emit(n *Node) error {
	x.enter(n)
	in := make([][]relational.Rec, len(n.kids)-1)
	return x.each(n.kids[0], func(r relational.Rec) bool {
		for i, l := range n.kids[1:] {
			var err error
			if in[i], err = x.lookup(l, r); err != nil {
				return x.fail(err)
			}
		}
		if n.tmpl.kind == tValue {
			if c := n.tmpl.col.i; !r.Null(c) {
				x.items = append(x.items, string(r.Col(c)))
			}
			return true
		}
		// Every row the item needs is fetched: the phase encloses no probe.
		var sp metrics.Span
		if n.rebuild {
			sp = x.s.DB.Metrics().StartSpan(metrics.PhaseMaterialize)
		}
		n.tmpl.write(x.enc, r, in)
		sp.End()
		if item := x.enc.Item(); item != "" {
			x.items = append(x.items, item)
		}
		return true
	})
}

// each hands fn the rows of n in order until fn returns false. A record
// is fn's only during the call — a scan's lies in its page — and one kept
// longer is cloned.
func (x *run) each(n *Node, fn func(relational.Rec) bool) error {
	x.enter(n)
	err := x.rows(n, fn)
	if err == nil {
		err = x.err
	}
	return err
}

func (x *run) rows(n *Node, fn func(relational.Rec) bool) error {
	switch n.op {
	case opScan:
		return x.s.DB.Table(n.table).Scan(x.ctx, fn)
	case opFilter:
		test := n.pred.bind(x.p)
		return x.each(n.kids[0], func(r relational.Rec) bool { return !test(r) || fn(r) })
	case opSemi:
		return x.semi(n, fn)
	case opJoin:
		return x.each(n.kids[0], func(o relational.Rec) bool {
			in, err := x.lookup(n.kids[1], o)
			if err != nil {
				return x.fail(err)
			}
			for _, r := range in {
				if !fn(relational.Concat(o, r)) {
					return false
				}
			}
			return true
		})
	case opAgg:
		return x.agg(n, fn)
	case opLimit:
		i := 0
		return x.each(n.kids[0], func(r relational.Rec) bool {
			i++
			return fn(r) && i < n.n
		})
	case opClob:
		return x.each(n.kids[0], func(r relational.Rec) bool {
			if err := x.parse(r.Col(n.on.i)); err != nil {
				return x.fail(err)
			}
			return x.docRows(n, x.doc.Root(), 0, r, fn)
		})
	case opCLOBs:
		return x.clobs(n, fn)
	}
	// A probe, a range, or a sort: rows fetched first.
	var rows []relational.Rec
	var err error
	if n.op == opSort {
		if rows, err = x.collect(n.kids[0]); err == nil {
			relational.Sort(rows, n.sort...)
		}
	} else {
		rows, err = x.fetch(n)
	}
	for _, r := range rows {
		if !fn(r) {
			break
		}
	}
	return err
}

// fetch runs the primary probe or range n along the plan's access path:
// byIndex false — the cost model rejected the index — forces the
// sequential filter. A probe takes the limit the plan pushed down to it.
func (x *run) fetch(n *Node) ([]relational.Rec, error) {
	t, byIndex := x.s.DB.Table(n.table), x.ph.Access != plan.AccessScan
	if n.op == opRange {
		return t.LookupRange(x.ctx, n.key.name, bound(n.params[0], x.p), bound(n.params[1], x.p), byIndex)
	}
	limit := 0
	if n.pushed {
		limit = x.ph.Limit
	}
	return t.LookupEq(x.ctx, n.key.name, bound(n.params[0], x.p), byIndex, limit)
}

// collect returns n's rows to keep: a probe's or a range's as fetched,
// any other's cloned.
func (x *run) collect(n *Node) ([]relational.Rec, error) {
	if n.op == opProbe || n.op == opRange {
		x.enter(n)
		return x.fetch(n)
	}
	var rows []relational.Rec
	err := x.each(n, func(r relational.Rec) bool {
		rows = append(rows, r.Clone())
		return true
	})
	return rows, err
}

// lookup runs the lookup n for the outer row o: through the key index bulk
// loading built, whatever the plan chose for the primary access, or — a
// seek — by filtering the table.
func (x *run) lookup(n *Node, o relational.Rec) ([]relational.Rec, error) {
	if n.when.name != "" && o.Null(n.when.i) {
		return nil, nil
	}
	x.enter(n)
	rows, err := x.s.DB.Table(n.table).LookupEq(x.ctx, n.key.name, string(o.Col(n.on.i)), !n.seq, n.n)
	if err != nil || n.pred == nil {
		return rows, err
	}
	test, kept := n.pred.bind(x.p), rows[:0]
	for _, r := range rows {
		if test(r) {
			kept = append(kept, r)
		}
	}
	return kept, nil
}

// parse reads the CLOB a doc column names and parses it into the run's
// doc, in the materialize phase.
func (x *run) parse(ref []byte) error {
	rid, err := strconv.ParseUint(string(ref), 10, 64)
	if err != nil {
		return fmt.Errorf("shredplan: bad CLOB reference %q", ref)
	}
	defer x.s.DB.Metrics().StartSpan(metrics.PhaseMaterialize).End()
	data, err := x.s.CLOBs.Get(x.ctx, pager.RID(rid))
	if err != nil {
		return err
	}
	return xmldom.ParseRecord(&x.doc, data)
}

// clobs hands fn the rows of n over every CLOB, in load order, that can
// have one: each is fetched, and parsed only when its root element is
// n.path's first and its text can hold the word (Word.MatchXML) — the
// cheap prefilters where the heap holds them. The parses are the parse phase and the rest
// of the pass the scan phase, so the two partition its time instead of
// nesting.
func (x *run) clobs(n *Node, fn func(relational.Rec) bool) error {
	start, parsing := time.Now(), time.Duration(0)
	defer func() {
		x.s.DB.Metrics().AddPhase(metrics.PhaseScan, time.Since(start)-parsing)
		x.s.DB.Metrics().AddPhase(metrics.PhaseParse, parsing)
	}()
	word := xquery.CompileWord(bound(n.params[0], x.p))
	var ref relational.Rec
	for _, rid := range x.s.RIDs {
		data, err := x.s.CLOBs.Get(x.ctx, rid)
		if err != nil {
			return err
		}
		if root, ok := xmldom.RootName(data); ok && string(root) != n.path[0] || !word.MatchXML(data) {
			continue
		}
		t := time.Now()
		err = xmldom.ParseRecord(&x.doc, data)
		parsing += time.Since(t)
		if err != nil {
			return err
		}
		var num [20]byte
		ref = relational.AppendCol(append(ref[:0], 0, 0), strconv.AppendUint(num[:0], uint64(rid), 10))
		if !x.docRows(n, x.doc.Root(), 0, ref, fn) {
			break
		}
	}
	return nil
}

// docRows hands fn a row for each chain of elements down n.path, from its
// step on, below parent, in document order: in's columns, then n's picks
// of the chain. It reports whether fn asked for more.
func (x *run) docRows(n *Node, parent xmldom.Ref, step int, in relational.Rec, fn func(relational.Rec) bool) bool {
	for e, ok := parent.FirstChild(); ok; e, ok = e.NextSibling() {
		if e.Kind() != xmldom.ElementKind || string(e.Name()) != n.path[step] {
			continue
		}
		x.chain = append(x.chain[:step], e)
		if step+1 < len(n.path) {
			if !x.docRows(n, e, step+1, in, fn) {
				return false
			}
		} else if !fn(x.rowOf(n, in)) {
			return false
		}
	}
	return true
}

// rowOf writes in's columns, then n's picks of the chain, into the run's
// row.
func (x *run) rowOf(n *Node, in relational.Rec) relational.Rec {
	x.row = append(x.row[:0], in...)
	for _, pk := range n.picks {
		e := x.chain[pk.step]
		x.val.Reset()
		switch pk.kind {
		case pickText:
			x.val.Write(e.AppendText(x.val.AvailableBuffer()))
		case pickAttr:
			v, _ := e.Attr(pk.attr)
			x.val.Write(v)
		default:
			e.AppendXML(&x.val)
		}
		x.row = relational.AppendCol(x.row, x.val.Bytes())
	}
	return x.row
}

// semi reads the kids in order: each marks the keys of its rows, and the
// outer — the last kid, streamed against the marks, or the first, kept
// until they are all made — hands on its rows whose key is marked.
func (x *run) semi(n *Node, fn func(relational.Rec) bool) error {
	marked := map[string]bool{}
	var test func(relational.Rec) bool
	if n.pred != nil {
		test = n.pred.bind(x.p)
	}
	// mark records that a row with key k passed (ok) or failed; under every
	// one failure unmarks k. Only a change is stored, so the key's string is
	// made once.
	mark := func(k []byte, ok bool) {
		if was, seen := marked[string(k)]; !seen || was && !ok {
			marked[string(k)] = ok
		}
	}
	var kept []relational.Rec
	for i, kid := range n.kids {
		k := n.keys[i].i
		var err error
		switch {
		case i != n.outer:
			err = x.each(kid, func(r relational.Rec) bool { mark(r.Col(k), !n.every || test(r)); return true })
		case i == 0:
			err = x.each(kid, func(r relational.Rec) bool {
				if test(r) {
					mark(r.Col(k), true)
				}
				kept = append(kept, r.Clone())
				return true
			})
		default:
			err = x.each(kid, func(r relational.Rec) bool { return !marked[string(r.Col(k))] || fn(r) })
		}
		if err != nil {
			return err
		}
	}
	for _, r := range kept {
		if marked[string(r.Col(n.keys[0].i))] && !fn(r) {
			break
		}
	}
	return nil
}

// agg hands on the aggregate n computes over its kid's rows.
func (x *run) agg(n *Node, fn func(relational.Rec) bool) error {
	k := n.key.i
	switch n.agg {
	case aggDistinct:
		seen := map[string]bool{}
		return x.each(n.kids[0], func(r relational.Rec) bool {
			if seen[string(r.Col(k))] {
				return true
			}
			seen[string(r.Col(k))] = true
			return fn(r)
		})
	case aggCount:
		counts := map[string]int{}
		if err := x.each(n.kids[0], func(r relational.Rec) bool {
			if !r.Null(k) {
				counts[string(r.Col(k))]++
			}
			return true
		}); err != nil {
			return err
		}
		for g, c := range counts {
			if !fn(relational.Row{g, strconv.Itoa(c)}.Rec()) {
				break
			}
		}
		return nil
	}
	sum, cnt := 0.0, 0
	if err := x.each(n.kids[0], func(r relational.Rec) bool {
		if f, ok := number(r.Col(k)); ok {
			sum, cnt = sum+f, cnt+1
		}
		return true
	}); err != nil {
		return err
	}
	if n.agg == aggAvg {
		if cnt == 0 {
			return nil
		}
		sum /= float64(cnt)
	}
	fn(relational.Row{xquery.FormatNumber(sum)}.Rec())
	return nil
}
