package plan

import (
	"fmt"
	"reflect"
	"testing"

	"xbench/internal/core"
	"xbench/internal/queries"
)

// TestCostFlip: the index-vs-scan choice follows the cost model. On a
// tiny table the sequential scan undercuts the probe (scanCost =
// DataPages < height+1); on a big one the index wins.
func TestCostFlip(t *testing.T) {
	def := queries.Lookup(core.DCMD, core.Q1)
	if def == nil {
		t.Fatal("no DCMD Q1")
	}
	small := StatValues{DataPages: 2, DataRows: 16, Indexes: map[string]int{"order/@id": 2}}
	ph, err := Plan(def, small)
	if err != nil {
		t.Fatal(err)
	}
	if ph.Access != AccessScan {
		t.Fatalf("2-page table: got %v, want scan (plan: %+v)", ph.Access, ph)
	}
	big := StatValues{DataPages: 512, DataRows: 4096, Indexes: map[string]int{"order/@id": 2}}
	ph, err = Plan(def, big)
	if err != nil {
		t.Fatal(err)
	}
	if ph.Access != AccessIndex || ph.IndexTarget != "order/@id" {
		t.Fatalf("512-page table: got %v/%q, want index on order/@id (plan: %+v)",
			ph.Access, ph.IndexTarget, ph)
	}
	if ph.EstCost >= float64(big.DataPages) {
		t.Errorf("index cost %.1f not cheaper than the %d-page scan", ph.EstCost, big.DataPages)
	}
}

// TestLimitPushdown: DCSD Q5's positional predicate ([1]) must surface as
// Limit 1 on the probe.
func TestLimitPushdown(t *testing.T) {
	def := queries.Lookup(core.DCSD, core.Q5)
	ph, err := Plan(def, FixtureStats(core.DCSD))
	if err != nil {
		t.Fatal(err)
	}
	if ph.Limit != 1 {
		t.Fatalf("Limit = %d, want 1", ph.Limit)
	}
	if ph.Access != AccessIndex || ph.IndexTarget != "item/@id" {
		t.Errorf("got %v/%q, want index on item/@id", ph.Access, ph.IndexTarget)
	}
}

// TestRangePushdown: the planner must push DCSD Q10's date range into
// an index probe.
func TestRangePushdown(t *testing.T) {
	def := queries.Lookup(core.DCSD, core.Q10)
	ph, err := Plan(def, FixtureStats(core.DCSD))
	if err != nil {
		t.Fatal(err)
	}
	if ph.Access != AccessIndex || ph.IndexTarget != "date_of_release" {
		t.Fatalf("got %v/%q, want range probe on date_of_release", ph.Access, ph.IndexTarget)
	}
	if ph.LoParam != "LO" || ph.HiParam != "HI" {
		t.Fatalf("range params = %q..%q, want LO..HI", ph.LoParam, ph.HiParam)
	}
}

// TestRangeCostFlip: a range probe is costed with DefaultRangeSelectivity
// of the data. DCSD Q10's date window is a probe on a 512-page table, a
// scan on a 2-page one, and the probe's estimate is the constant's share of
// the pages and rows.
func TestRangeCostFlip(t *testing.T) {
	def := queries.Lookup(core.DCSD, core.Q10)
	if def == nil {
		t.Fatal("no DCSD Q10")
	}
	idx := map[string]int{"date_of_release": 2}
	small := StatValues{DataPages: 2, DataRows: 16, Indexes: idx}
	ph, err := Plan(def, small)
	if err != nil {
		t.Fatal(err)
	}
	if ph.Access != AccessScan {
		t.Fatalf("2-page table: got %v, want scan (plan: %+v)", ph.Access, ph)
	}
	big := StatValues{DataPages: 512, DataRows: 4096, Indexes: idx}
	if ph, err = Plan(def, big); err != nil {
		t.Fatal(err)
	}
	if ph.Access != AccessIndex || ph.IndexTarget != "date_of_release" {
		t.Fatalf("512-page table: got %v/%q, want range probe on date_of_release", ph.Access, ph.IndexTarget)
	}
	if want := 2 + DefaultRangeSelectivity*512; ph.EstCost != want {
		t.Errorf("EstCost = %v, want %v", ph.EstCost, want)
	}
	if want := DefaultRangeSelectivity * 4096; ph.EstRows != want {
		t.Errorf("EstRows = %v, want %v", ph.EstRows, want)
	}
}

// TestPlanPure: planning twice (and with perturbed stats in between)
// yields identical plans — the memoized query shape must never be
// mutated by a planning pass.
func TestPlanPure(t *testing.T) {
	def := queries.Lookup(core.DCMD, core.Q19)
	first, err := Plan(def, FixtureStats(core.DCMD))
	if err != nil {
		t.Fatal(err)
	}
	shape := fmt.Sprintf("%+v", *first.Shape)
	if _, err := Plan(def, StatValues{DataPages: 1, DataRows: 1, Indexes: nil}); err != nil {
		t.Fatal(err)
	}
	again, err := Plan(def, FixtureStats(core.DCMD))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%+v", *again.Shape); got != shape {
		t.Fatalf("planning mutated the shape:\n--- first\n%s\n--- again\n%s", shape, got)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("replanning drifted:\n--- first\n%+v\n--- again\n%+v", first, again)
	}
}

// TestOneParsePerQueryText: a query text is parsed once, for the planner's
// shape and the evaluator's query alike — every plan of the text hands
// out the same compiled query — and a text that does not parse still
// plans, as a full scan, with the parse error kept for whoever evaluates
// it.
func TestOneParsePerQueryText(t *testing.T) {
	def := queries.Lookup(core.DCMD, core.Q1)
	a, err := Plan(def, FixtureStats(core.DCMD))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Plan(def, StatValues{DataPages: 2, DataRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	if a.ParseErr != nil || a.Query == nil || a.Query != b.Query {
		t.Fatalf("two plans of one text compiled it to %p (%v) and %p", a.Query, a.ParseErr, b.Query)
	}

	bad := &queries.Def{ID: core.Q1, Class: core.DCMD, XQuery: `//order[@id = `}
	ph, err := Plan(bad, FixtureStats(core.DCMD))
	if err != nil {
		t.Fatalf("an unparseable text must still plan: %v", err)
	}
	if ph.Access != AccessScan || len(ph.Shape.Sources) != 0 {
		t.Errorf("unparseable text planned as %v over %d sources, want a full scan", ph.Access, len(ph.Shape.Sources))
	}
	if ph.ParseErr == nil || ph.Query != nil {
		t.Errorf("unparseable text compiled to %v, %v", ph.Query, ph.ParseErr)
	}
}

// TestOneDocumentRoutes pins which catalog queries one document answers:
// on DC/MD and TC/MD the @id point reads and doc($DOC), and nothing else —
// not DC/MD Q19, whose second source joins other documents, and no scan;
// on the single-document classes nothing routes.
func TestOneDocumentRoutes(t *testing.T) {
	want := map[core.Class]map[core.QueryID]DocRoute{
		core.DCMD: {
			core.Q1: {"X", "order"}, core.Q5: {"X", "order"}, core.Q8: {"X", "order"},
			core.Q9: {"X", "order"}, core.Q12: {"X", "order"}, core.Q16: {"DOC", ""},
		},
		core.TCMD: {
			core.Q1: {"X", "article"}, core.Q5: {"X", "article"}, core.Q8: {"X", "article"},
			core.Q9: {"X", "article"}, core.Q12: {"X", "article"}, core.Q13: {"X", "article"},
			core.Q16: {"DOC", ""},
		},
	}
	for _, class := range core.Classes {
		for q := core.Q1; q <= core.Q20; q++ {
			got, ok := OneDocument(class, q)
			w, wantOK := want[class][q]
			if ok != wantOK || got != w {
				t.Errorf("%s %s: OneDocument = %+v, %v; want %+v, %v", class, q, got, ok, w, wantOK)
			}
		}
	}
}
