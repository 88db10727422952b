package shredplan

import (
	"context"

	"xbench/internal/core"
	"xbench/internal/plan"
	"xbench/internal/queries"
	"xbench/internal/relational"
	"xbench/internal/shredder"
)

// This file connects the hand-translated relational plans to the
// cost-based planner: StoreStats is what the planner costs a query over,
// and the primary-table lookups of Access honor its index-vs-scan choice
// and pushed-down limit.

// primaryTable names the table whose size drives the scan cost of a
// class's queries: the table the root element shreds into.
func primaryTable(class core.Class) string {
	switch class {
	case core.DCSD:
		return "item_tab"
	case core.DCMD:
		return "order_tab"
	case core.TCSD:
		return "entry_tab"
	case core.TCMD:
		return "article_tab"
	}
	return ""
}

// StoreStats derives planner statistics from the shredded store: pages
// and rows of the class's primary table, plus the heights of the value
// indexes actually built (Table 3 targets, and the customer key index
// that makes Q19's inner side an index nested loop).
func StoreStats(s shredder.View) plan.StatValues {
	st := plan.StatValues{Indexes: map[string]int{}}
	if name := primaryTable(s.Class); name != "" {
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
	if s.Class == core.DCMD {
		if h := s.DB.Table("customer_tab").IndexHeight("id"); h > 0 {
			st.Indexes["customer/@id"] = h
		}
	}
	return st
}

// Access carries the physical plan's decisions into hand-translated
// relational plans: the per-query plans of this package, and Xcolumn's
// side-table lookups. Each method hands the plan's access path, and first
// its pushed-down limit, straight to the view's one equality or range.
type Access struct {
	Plan *plan.Physical
}

// byIndex is the planned access path: false when the cost model rejected
// the index, which forces the sequential filter.
func (a Access) byIndex() bool { return a.Plan.Access != plan.AccessScan }

// Eq fetches the rows where col == val along the planned access path.
func (a Access) Eq(ctx context.Context, t *relational.TableView, col, val string) ([]relational.Row, error) {
	return t.LookupEq(ctx, col, val, a.byIndex(), 0)
}

// first fetches the first row where col == val. When the plan pushed a
// [1] positional down (Limit == 1) only that row is read; with no limit
// it is fetch-all-take-first.
func (a Access) first(ctx context.Context, t *relational.TableView, col, val string) (relational.Row, error) {
	rows, err := t.LookupEq(ctx, col, val, a.byIndex(), a.Plan.Limit)
	if err != nil || len(rows) == 0 {
		return nil, err
	}
	return rows[0], nil
}

// Rng fetches the rows with lo <= col <= hi along the planned access
// path, then feeds the observed selectivity (rows kept / rows in the
// probed table) back to the planner. The feedback fires on both
// branches — a range the cost model demoted to a scan keeps reporting,
// so it can be re-promoted when the data shifts back under it.
func (a Access) Rng(ctx context.Context, t *relational.TableView, col, lo, hi string) ([]relational.Row, error) {
	rows, err := t.LookupRange(ctx, col, lo, hi, a.byIndex())
	if err == nil {
		a.Plan.Observe(len(rows), t.Count())
	}
	return rows, err
}

// byKey fetches every row where col == val for the inner side of a join
// or a child table: through the key index bulk loading built, whatever
// the plan chose for the primary access.
func byKey(ctx context.Context, t *relational.TableView, col, val string) ([]relational.Row, error) {
	return t.LookupEq(ctx, col, val, true, 0)
}
