package shredplan

import (
	"context"

	"xbench/internal/core"
	"xbench/internal/plan"
	"xbench/internal/queries"
	"xbench/internal/relational"
	"xbench/internal/shredder"
)

// This file connects the trees to the cost-based planner: StoreStats is
// what the planner costs a query over, and Access carries its index-vs-scan
// choice, pushed-down limit and range feedback into the primary probe.

// primaryTable names, per class, the table whose size drives the scan cost
// of the class's queries: the table the root element shreds into.
var primaryTable = map[core.Class]string{
	core.DCSD: "item_tab",
	core.DCMD: "order_tab",
	core.TCSD: "entry_tab",
	core.TCMD: "article_tab",
}

// joinIndexes are the key indexes the planner may cost a join's inner side
// with, beside the Table 3 targets: the customer key index makes Q19's
// inner side an index nested loop.
var joinIndexes = map[core.Class]map[string][2]string{
	core.DCMD: {"customer/@id": {"customer_tab", "id"}},
}

// StoreStats derives planner statistics from the shredded store: pages
// and rows of the class's primary table, plus the heights of the value
// indexes actually built (Table 3 targets and joinIndexes).
func StoreStats(s shredder.View) plan.StatValues {
	st := plan.StatValues{Indexes: map[string]int{}}
	if name, ok := primaryTable[s.Class]; ok {
		t := s.DB.Table(name)
		st.DataPages = t.HeapPages()
		st.DataRows = int64(t.Count())
	}
	for _, spec := range queries.Indexes(s.Class) {
		table, col, ok := shredder.TargetColumn(s.Class, spec.Target)
		if !ok {
			continue
		}
		if h := s.DB.Table(table).IndexHeight(col); h > 0 {
			st.Indexes[spec.Target] = h
		}
	}
	for target, tc := range joinIndexes[s.Class] {
		if h := s.DB.Table(tc[0]).IndexHeight(tc[1]); h > 0 {
			st.Indexes[target] = h
		}
	}
	return st
}

// Access carries the physical plan's decisions into a relational lookup:
// the primary probe and range of the trees, and Xcolumn's side-table
// lookups. Each method hands the plan's access path straight to the view's
// one equality or range.
type Access struct {
	Plan *plan.Physical
}

// byIndex is the planned access path: false when the cost model rejected
// the index, which forces the sequential filter.
func (a Access) byIndex() bool { return a.Plan.Access != plan.AccessScan }

// Eq fetches the rows where col == val along the planned access path, only
// the first limit of them when limit > 0 (a limit the plan pushed down).
func (a Access) Eq(ctx context.Context, t *relational.TableView, col, val string, limit int) ([]relational.Rec, error) {
	return t.LookupEq(ctx, col, val, a.byIndex(), limit)
}

// Rng fetches the rows with lo <= col <= hi along the planned access
// path, then feeds the observed selectivity (rows kept / rows in the
// probed table) back to the planner. The feedback fires on both
// branches — a range the cost model demoted to a scan keeps reporting,
// so it can be re-promoted when the data shifts back under it.
func (a Access) Rng(ctx context.Context, t *relational.TableView, col, lo, hi string) ([]relational.Rec, error) {
	rows, err := t.LookupRange(ctx, col, lo, hi, a.byIndex())
	if err == nil {
		a.Plan.Observe(len(rows), t.Count())
	}
	return rows, err
}

// byKey fetches every row where col == val for a lookup: through the key
// index bulk loading built, whatever the plan chose for the primary access.
func byKey(ctx context.Context, t *relational.TableView, col, val string) ([]relational.Rec, error) {
	return t.LookupEq(ctx, col, val, true, 0)
}
