package shredplan

import (
	"xbench/internal/core"
	"xbench/internal/plan"
	"xbench/internal/queries"
	"xbench/internal/shredder"
	"xbench/internal/xmlschema"
)

// This file connects the trees to the cost-based planner: StoreStats is
// what the planner costs a query over. The primary probe or range takes
// the plan's decisions back (run.fetch).

// joinTargets are the key indexes the planner may cost a join's inner side
// with, beside the Table 3 targets: the customer key index bulk loading
// builds on the shredded tables makes Q19's inner side an index nested
// loop.
var joinTargets = map[core.Class][]string{core.DCMD: {"customer/@id"}}

// StoreStats derives planner statistics from a store: the pages and rows
// of the table the class's root element shreds into, the first of its
// shredded mapping — under the DAD of the CLOB heap, which every
// unindexed query rereads — plus the heights of the value indexes
// actually built (Table 3 targets and, shredded, joinTargets).
func StoreStats(s Source) plan.StatValues {
	st := plan.StatValues{Indexes: map[string]int{}}
	var targets []string
	for _, spec := range queries.Indexes(s.Class) {
		targets = append(targets, spec.Target)
	}
	if s.Mapping == xmlschema.DAD {
		st.DataPages, st.DataRows = s.CLOBs.Pages(), int64(s.CLOBs.Count())
	} else {
		t := s.DB.Table(shredder.Tables(s.Class, xmlschema.Shredded)[0])
		st.DataPages = t.HeapPages()
		st.DataRows = int64(t.Count())
		targets = append(targets, joinTargets[s.Class]...)
	}
	for _, target := range targets {
		table, col, ok := shredder.TargetColumn(s.Class, s.Mapping, target)
		if !ok {
			continue
		}
		if h := s.DB.Table(table).IndexHeight(col); h > 0 {
			st.Indexes[target] = h
		}
	}
	return st
}
