// Package shredplan is how the shredding engines (DB2 Xcollection and SQL
// Server) answer queries. Each query the paper's authors translated by hand
// (§3.2: "the query translations from XQuery to their own languages ...
// were done by us") is an operator tree in one table (trees.go), keyed by
// class and query: a primary probe, range or scan that takes the plan's
// access path, key-index lookups, filters on the stored columns, key-set
// semi-joins, an index nested-loop join, aggregates, sort, limit, and an
// emit that writes each answer item from rows through a template. Exec
// walks the tree and Explain prints the same tree, so what an engine
// explains is what it executes.
//
// Emitting is where shredding hurts: order is only insertion order
// (flagged OrderGuaranteed=false for order-sensitive queries), mixed
// content is flattened or lost, and structure that did not survive the
// mapping (qp groupings, nested paragraphs) cannot be rebuilt — the
// §3.2.2 caveat.
package shredplan

import (
	"context"
	"strconv"

	"xbench/internal/core"
	"xbench/internal/metrics"
	"xbench/internal/plan"
	"xbench/internal/relational"
	"xbench/internal/shredder"
	"xbench/internal/xmldom"
	"xbench/internal/xquery"
)

// Exec runs the tree of ph's query over the shredded store, its primary
// probe or range along ph's access path.
func Exec(ctx context.Context, s shredder.View, ph *plan.Physical, p core.Params) (core.Result, error) {
	return exec(ctx, s, ph, p, nil)
}

// Explain renders the tree Exec runs for ph's query over a store of class.
func Explain(class core.Class, ph *plan.Physical) (*core.PlanNode, error) {
	root := trees[cell{class, ph.Def.ID}]
	if root == nil {
		return nil, core.ErrNoQuery
	}
	return root.plan(ph), nil
}

// exec is Exec, calling entered, when set, with every node it enters.
func exec(ctx context.Context, s shredder.View, ph *plan.Physical, p core.Params, entered func(*Node)) (core.Result, error) {
	root := trees[cell{s.Class, ph.Def.ID}]
	if root == nil {
		return core.Result{}, core.ErrNoQuery
	}
	x := &run{ctx: ctx, s: s, ph: ph, p: p, entered: entered}
	if err := x.emit(root); err != nil {
		return core.Result{}, err
	}
	return core.Result{
		Items:            x.items,
		OrderGuaranteed:  !ph.Def.OrderSensitive,
		MixedContentLost: ph.Def.TouchesMixed && s.Opts.DropMixed,
	}, nil
}

// run is one execution of a tree.
type run struct {
	ctx     context.Context
	s       shredder.View
	ph      *plan.Physical
	p       core.Params
	items   []string
	err     error // the first error met inside a callback, which stopped the walk
	entered func(*Node)
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
	enc, in := xmldom.NewFragment(), make([][]relational.Rec, len(n.kids)-1)
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
		n.tmpl.write(enc, r, in)
		sp.End()
		if item := enc.Item(); item != "" {
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

// fetch runs the primary probe or range n along the plan's access path.
func (x *run) fetch(n *Node) ([]relational.Rec, error) {
	a, t := Access{Plan: x.ph}, x.s.DB.Table(n.table)
	if n.op == opRange {
		return a.Rng(x.ctx, t, n.key.name, bound(n.params[0], x.p), bound(n.params[1], x.p))
	}
	limit := 0
	if n.pushed {
		limit = x.ph.Limit
	}
	return a.Eq(x.ctx, t, n.key.name, bound(n.params[0], x.p), limit)
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

// lookup runs the lookup n for the outer row o.
func (x *run) lookup(n *Node, o relational.Rec) ([]relational.Rec, error) {
	if n.when.name != "" && o.Null(n.when.i) {
		return nil, nil
	}
	x.enter(n)
	rows, err := byKey(x.ctx, x.s.DB.Table(n.table), n.key.name, string(o.Col(n.on.i)))
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
