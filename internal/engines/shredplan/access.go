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
// and pushed-down limit instead of hard-coding LookupEq calls.

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
func StoreStats(s *shredder.Store) plan.StatValues {
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
// side-table lookups.
type Access struct {
	Plan *plan.Physical
}

// forceScan reports that the cost model rejected the index.
func (a Access) forceScan() bool { return a.Plan.Access == plan.AccessScan }

// Eq fetches the rows where col == val along the planned access path:
// an index probe normally, a forced sequential filter when the plan
// chose the scan.
func (a Access) Eq(ctx context.Context, t *relational.Table, col, val string) ([]relational.Row, error) {
	if a.forceScan() {
		return t.ScanEq(ctx, col, val)
	}
	return t.LookupEq(ctx, col, val)
}

// first fetches the first row where col == val. When the plan pushed a
// [1] positional down (Limit == 1), only one row is read from the
// index; otherwise it falls back to fetch-all-take-first.
func (a Access) first(ctx context.Context, t *relational.Table, col, val string) (relational.Row, error) {
	var (
		rows []relational.Row
		err  error
	)
	if a.Plan.Limit == 1 && !a.forceScan() {
		rows, err = t.LookupEqN(ctx, col, val, 1)
	} else {
		rows, err = a.Eq(ctx, t, col, val)
	}
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
func (a Access) Rng(ctx context.Context, t *relational.Table, col, lo, hi string) ([]relational.Row, error) {
	var (
		rows []relational.Row
		err  error
	)
	if a.forceScan() {
		rows, err = t.ScanRange(ctx, col, lo, hi)
	} else {
		rows, err = t.LookupRange(ctx, col, lo, hi)
	}
	if err == nil {
		a.Plan.Observe(len(rows), t.Count())
	}
	return rows, err
}
