// Package plan is the cost-based query planner. It reads the parsed
// XQuery shape of a catalog query (xquery.Query.Shape), pushes the
// primary source's indexable predicates into index probes and its
// positional [k] into a limit, and costs the access-path alternatives
// with the engine's page counts to pick index-vs-scan. It is the only
// source of access paths: the catalog (internal/queries) says what a
// query computes, never how.
//
// A plan is a function of the query and the statistics alone: nothing an
// execution observes is fed back into the cost model, so an engine plans
// each query once per published view and carries the plan across a
// commit for as long as it Holds over the new statistics.
//
// The planner only decides; it draws nothing. All four engines execute
// through the resulting Physical, and each draws the tree it runs with
// it for core.Explainer — the native engine its access under the
// evaluator, the others their operator trees — so access-path
// regressions are diffable golden files (results/plans, each engine
// family's TestGoldenPlans) instead of silent perf cliffs.
package plan

import (
	"maps"
	"sort"
	"strings"
	"sync"

	"xbench/internal/core"
	"xbench/internal/queries"
	"xbench/internal/xquery"
)

// Access is the chosen primary access path.
type Access int

const (
	// AccessScan reads the whole collection (heap scan / CLOB scan /
	// table scan) and filters.
	AccessScan Access = iota
	// AccessIndex probes a Table 3 value index, equality or range.
	AccessIndex
	// AccessDoc fetches one named document (doc($X) queries).
	AccessDoc
)

func (a Access) String() string {
	switch a {
	case AccessIndex:
		return "index"
	case AccessDoc:
		return "doc"
	default:
		return "scan"
	}
}

// StatValues feeds the cost model. Engines derive them from live pager
// page counts; tests and goldens use FixtureStats for determinism.
type StatValues struct {
	// DataPages is the page count of the primary data (document heap,
	// CLOB heap, or primary shredded table).
	DataPages int64
	// DataRows is the addressable-unit count (documents, or rows of
	// the primary table).
	DataRows int64
	// Indexes maps available value-index targets (Table 3 notation:
	// "hw", "item/@id", "date_of_release") to their btree height.
	Indexes map[string]int
}

// FixtureStats returns the canonical statistics used for golden plans:
// a collection big enough that every Table 3 index wins, with exactly
// the class's indexes at height 2.
func FixtureStats(class core.Class) StatValues {
	st := StatValues{DataPages: 512, DataRows: 4096, Indexes: map[string]int{}}
	for _, spec := range queries.Indexes(class) {
		st.Indexes[spec.Target] = 2
	}
	return st
}

// Physical is a costed physical plan: the decisions an engine needs to
// execute (access path, probe parameters, pushed-down limit).
type Physical struct {
	Def *queries.Def
	// Compiled is Def's text parsed: the Shape costed here and the Query
	// the native engine evaluates, shared by every plan of the text. The
	// Shape's first source is the primary access; it is shared and never
	// mutated.
	*Compiled

	// Access is the costed index-vs-scan choice for the primary source.
	Access Access
	// IndexTarget/IndexParam identify an equality probe: the Table 3
	// index target and the query parameter holding the key.
	IndexTarget string
	IndexParam  string
	// LoParam/HiParam are set instead of IndexParam for range probes.
	LoParam, HiParam string
	// Limit is the pushed-down row cap (positional [k] access), 0 if
	// none.
	Limit int
	// EstCost and EstRows are the cost model's numbers for the chosen
	// primary access path.
	EstCost float64
	EstRows float64

	// costed is what of the statistics the plan was built from (reads),
	// which is all Holds compares.
	costed StatValues
}

// reads is the part of st a plan of ph's access path is built from: the
// index heights, unless ph is a doc lookup (which reads none), and, for a
// scan or a range probe, whose cost and row estimate are theirs, DataPages
// and DataRows. An equality probe's own cost is the index height; the data
// size decides only whether it beats the scan, which Holds checks apart.
func (ph *Physical) reads(st StatValues) StatValues {
	var r StatValues
	if ph.Access != AccessDoc {
		r.Indexes = st.Indexes
	}
	if ph.Access == AccessScan || ph.LoParam != "" {
		r.DataPages, r.DataRows = st.DataPages, st.DataRows
	}
	return r
}

// Holds reports whether Plan(ph.Def, st) would build a plan equal to ph,
// field for field (its costed statistics included), without building it:
// a doc lookup always, an equality probe while the index heights are
// unchanged and the probe still beats the scan over st, a scan or a range
// probe while the index heights, DataPages and DataRows are all unchanged.
// The statistics are compared, not copied, so a map handed to Plan must
// not change afterwards.
func (ph *Physical) Holds(st StatValues) bool {
	now := ph.reads(st)
	return now.DataPages == ph.costed.DataPages && now.DataRows == ph.costed.DataRows &&
		maps.Equal(now.Indexes, ph.costed.Indexes) &&
		(ph.Access != AccessIndex || ph.EstCost < scanCost(st))
}

// Compiled is what the one parse of a catalog query's text yields, and
// read-only: the query compiled to closures, which every evaluation of
// the text runs, and its Shape. A text that does not parse — none of the
// catalog's — keeps the error for whoever evaluates it and a Shape with
// no facts, which plans as a full scan.
type Compiled struct {
	Shape    *xquery.Shape
	Query    *xquery.Query
	ParseErr error
}

// compiledCache memoizes compile per query text: all of it depends only
// on the XQuery source, and Plan runs on every uncached Execute. It also
// keeps each compiled query's idle evaluation runs warm across plans.
var compiledCache sync.Map // string -> *Compiled

func compile(def *queries.Def) *Compiled {
	if v, ok := compiledCache.Load(def.XQuery); ok {
		return v.(*Compiled)
	}
	c := &Compiled{Shape: &xquery.Shape{}}
	if c.Query, c.ParseErr = xquery.Parse(def.XQuery); c.ParseErr == nil {
		c.Shape = c.Query.Shape()
	}
	// Two plans that compiled at once both get the first one stored, so
	// a query text has one Query.
	v, _ := compiledCache.LoadOrStore(def.XQuery, c)
	return v.(*Compiled)
}

// Plan builds the costed physical plan for def under st.
func Plan(def *queries.Def, st StatValues) (*Physical, error) {
	if def == nil {
		return nil, core.ErrNoQuery
	}
	ph := &Physical{Def: def, Compiled: compile(def), Access: AccessScan}
	switch {
	case ph.Shape.UsesDoc:
		ph.Access = AccessDoc
		ph.EstCost, ph.EstRows = 1, 1
	case len(ph.Shape.Sources) > 0:
		prim := &ph.Shape.Sources[0]
		chooseAccess(ph, prim, st)
		ph.Limit = prim.Positional
	default:
		ph.EstCost, ph.EstRows = scanCost(st), float64(st.DataRows)
	}
	ph.costed = ph.reads(st)
	return ph, nil
}

// candidate is one indexable predicate set on the primary source.
type candidate struct {
	target string // index target
	height int
	eq     *xquery.Pred // equality probe, or
	lo, hi *xquery.Pred // range probe bounds
}

// chooseAccess runs predicate pushdown and the cost model: it finds the
// indexable predicates on the primary source, costs each probe against
// the sequential scan, and picks the cheapest.
func chooseAccess(ph *Physical, prim *xquery.Source, st StatValues) {
	cands := findCandidates(prim, st)
	best, bestCost := (*candidate)(nil), scanCost(st)
	for i := range cands {
		if c := probeCost(&cands[i], st); c < bestCost {
			best, bestCost = &cands[i], c
		}
	}
	if best == nil {
		ph.EstCost, ph.EstRows = scanCost(st), float64(st.DataRows)
		return
	}
	ph.Access = AccessIndex
	ph.EstCost, ph.EstRows = bestCost, estRows(best, st)
	ph.IndexTarget = best.target
	if best.eq != nil {
		ph.IndexParam = paramName(best.eq.Param)
	} else {
		ph.LoParam = paramName(best.lo.Param)
		ph.HiParam = paramName(best.hi.Param)
	}
}

// findCandidates matches the source's comparison predicates against the
// available index targets. A path matches both bare ("hw",
// "date_of_release") and root-qualified ("article/@id") notation.
func findCandidates(prim *xquery.Source, st StatValues) []candidate {
	matchTarget := func(path string) (string, int, bool) {
		if h, ok := st.Indexes[path]; ok {
			return path, h, true
		}
		q := prim.RootElem + "/" + path
		if h, ok := st.Indexes[q]; ok {
			return q, h, true
		}
		return "", 0, false
	}
	var cands []candidate
	ranges := map[string]*candidate{}
	for i := range prim.Preds {
		pr := &prim.Preds[i]
		if !plainParam(pr.Param) {
			continue
		}
		target, h, ok := matchTarget(pr.Path)
		if !ok {
			continue
		}
		switch pr.Op {
		case "=":
			cands = append(cands, candidate{target: target, height: h, eq: pr})
		case ">=", ">":
			c := ranges[target]
			if c == nil {
				c = &candidate{target: target, height: h}
				ranges[target] = c
			}
			c.lo = pr
		case "<=", "<":
			c := ranges[target]
			if c == nil {
				c = &candidate{target: target, height: h}
				ranges[target] = c
			}
			c.hi = pr
		}
	}
	targets := make([]string, 0, len(ranges))
	for t := range ranges {
		targets = append(targets, t)
	}
	sort.Strings(targets)
	for _, t := range targets {
		if c := ranges[t]; c.lo != nil && c.hi != nil {
			cands = append(cands, *c)
		}
	}
	return cands
}

// plainParam reports whether a predicate's right side is a bare query
// parameter ("$X") rather than a join reference ("$o/customer_id") or a
// literal: only bare parameters are probe keys.
func plainParam(p string) bool {
	return strings.HasPrefix(p, "$") && !strings.Contains(p, "/")
}

func paramName(p string) string { return strings.TrimPrefix(p, "$") }

// DefaultRangeSelectivity is the fraction of rows every range predicate
// is assumed to keep. The benchmark's date ranges select narrow windows;
// 0.25 is deliberately pessimistic so range probes only win against real
// scans. It is a constant, not an estimate: a plan depends on nothing but
// the query and the statistics it was built from, so one view runs one
// plan of a query whatever windows its executions bind.
const DefaultRangeSelectivity = 0.25

// scanCost is the page count of a sequential scan.
func scanCost(st StatValues) float64 {
	if st.DataPages < 1 {
		return 1
	}
	return float64(st.DataPages)
}

// probeCost models an index probe: descend the btree (height pages),
// then fetch the estimated matches. Equality on a value index is
// unique-ish (1 row); ranges keep DefaultRangeSelectivity of the rows,
// each costing its share of the heap pages.
func probeCost(c *candidate, st StatValues) float64 {
	h := float64(c.height)
	if h < 1 {
		h = 1
	}
	if c.eq != nil {
		return h + 1
	}
	return h + DefaultRangeSelectivity*scanCost(st)
}

func estRows(c *candidate, st StatValues) float64 {
	if c.eq != nil {
		return 1
	}
	r := DefaultRangeSelectivity * float64(st.DataRows)
	if r < 1 {
		r = 1
	}
	return r
}

// DocRoute is a catalog query's "one document answers this" property: the
// parameter that names the one document every instance of the query reads.
type DocRoute struct {
	// Param is the query parameter: the document's name for doc($Param),
	// otherwise the id its root element carries (core.DocOf maps it to the
	// document).
	Param string
	// Elem is the root element the id must name, the query's one source
	// element ("order", "article"); "" for doc($Param).
	Elem string
}

// OneDocument derives the DocRoute of (class, q) from the compiled query's
// Shape. It holds for doc($P) alone, and for a query with exactly one
// source whose first step carries an @id = $P equality: every item such a
// query returns lies under that one element. A multi-document class
// partitions its documents, so there the route sends the query to one
// document's owner; a single-document class has nothing to route, and q
// undefined for the class has no route either.
func OneDocument(class core.Class, q core.QueryID) (DocRoute, bool) {
	def := queries.Lookup(class, q)
	if def == nil || class.SingleDocument() {
		return DocRoute{}, false
	}
	sh := compile(def).Shape
	switch {
	case sh.UsesDoc:
		if sh.DocParam == "" || len(sh.Sources) != 0 {
			return DocRoute{}, false
		}
		return DocRoute{Param: sh.DocParam}, true
	case len(sh.Sources) != 1:
		return DocRoute{}, false
	}
	src := &sh.Sources[0]
	for _, pr := range src.Preds {
		if pr.Path == "@id" && pr.Op == "=" && plainParam(pr.Param) {
			return DocRoute{Param: paramName(pr.Param), Elem: src.RootElem}, true
		}
	}
	return DocRoute{}, false
}
