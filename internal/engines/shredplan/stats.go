package shredplan

import (
	"xbench/internal/core"
	"xbench/internal/plan"
	"xbench/internal/queries"
	"xbench/internal/shredder"
)

// This file connects the trees to the cost-based planner: StoreStats is
// what the planner costs a query over. The primary probe or range takes
// the plan's decisions back (run.fetch).

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

// StoreStats derives planner statistics from a store: the pages and rows
// of the class's primary table — in the Xcolumn layout of the CLOB heap,
// which every unindexed query rereads — plus the heights of the value
// indexes actually built (Table 3 targets and, shredded, joinIndexes).
func StoreStats(s Source) plan.StatValues {
	st := plan.StatValues{Indexes: map[string]int{}}
	column, joins := shredder.TargetColumn, joinIndexes[s.Class]
	if s.Layout == Xcolumn {
		st.DataPages, st.DataRows = s.CLOBs.Pages(), int64(len(s.RIDs))
		column, joins = shredder.SideColumn, nil
	} else if name, ok := primaryTable[s.Class]; ok {
		t := s.DB.Table(name)
		st.DataPages = t.HeapPages()
		st.DataRows = int64(t.Count())
	}
	for _, spec := range queries.Indexes(s.Class) {
		table, col, ok := column(s.Class, spec.Target)
		if !ok {
			continue
		}
		if h := s.DB.Table(table).IndexHeight(col); h > 0 {
			st.Indexes[spec.Target] = h
		}
	}
	for target, tc := range joins {
		if h := s.DB.Table(tc[0]).IndexHeight(tc[1]); h > 0 {
			st.Indexes[target] = h
		}
	}
	return st
}
