package plan

import (
	"strings"
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
		t.Fatalf("2-page table: got %v, want scan (plan:\n%s)", ph.Access, ph.Root.Format())
	}
	big := StatValues{DataPages: 512, DataRows: 4096, Indexes: map[string]int{"order/@id": 2}}
	ph, err = Plan(def, big)
	if err != nil {
		t.Fatal(err)
	}
	if ph.Access != AccessIndex || ph.IndexTarget != "order/@id" {
		t.Fatalf("512-page table: got %v/%q, want index on order/@id (plan:\n%s)",
			ph.Access, ph.IndexTarget, ph.Root.Format())
	}
	if ph.EstCost >= float64(big.DataPages) {
		t.Errorf("index cost %.1f not cheaper than the %d-page scan", ph.EstCost, big.DataPages)
	}
}

// TestLimitPushdown: DCSD Q5's positional predicate ([1]) must surface as
// Limit 1 with a limit node atop the probe.
func TestLimitPushdown(t *testing.T) {
	def := queries.Lookup(core.DCSD, core.Q5)
	ph, err := Plan(def, FixtureStats(core.DCSD))
	if err != nil {
		t.Fatal(err)
	}
	if ph.Limit != 1 {
		t.Fatalf("Limit = %d, want 1", ph.Limit)
	}
	out := ph.Root.Format()
	for _, want := range []string{"limit 1 [limit-pushdown]", "index-probe item/@id"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan missing %q:\n%s", want, out)
		}
	}
	if !hasRule(ph, "limit-pushdown(n=1)") {
		t.Errorf("rules = %v, want limit-pushdown(n=1)", ph.Rules)
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

// TestJoinReorder: DCMD Q19 joins order with customer; the side with the
// equality probe must become the outer.
func TestJoinReorder(t *testing.T) {
	def := queries.Lookup(core.DCMD, core.Q19)
	ph, err := Plan(def, FixtureStats(core.DCMD))
	if err != nil {
		t.Fatal(err)
	}
	if !hasRule(ph, "join-reorder(outer=order)") {
		t.Fatalf("rules = %v, want join-reorder(outer=order)", ph.Rules)
	}
	if out := ph.Root.Format(); !strings.Contains(out, "join order x customer") {
		t.Errorf("plan missing join node:\n%s", out)
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
	if _, err := Plan(def, StatValues{DataPages: 1, DataRows: 1, Indexes: nil}); err != nil {
		t.Fatal(err)
	}
	again, err := Plan(def, FixtureStats(core.DCMD))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := first.Root.Format(), again.Root.Format(); a != b {
		t.Fatalf("replanning drifted:\n--- first\n%s\n--- again\n%s", a, b)
	}
}

func hasRule(ph *Physical, rule string) bool {
	for _, r := range ph.Rules {
		if r == rule {
			return true
		}
	}
	return false
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
	if ph.Access != AccessScan || len(ph.Sources) != 0 {
		t.Errorf("unparseable text planned as %v over %d sources, want a full scan", ph.Access, len(ph.Sources))
	}
	if ph.ParseErr == nil || ph.Query != nil {
		t.Errorf("unparseable text compiled to %v, %v", ph.Query, ph.ParseErr)
	}
}
