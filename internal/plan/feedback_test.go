package plan

import (
	"testing"

	"xbench/internal/core"
	"xbench/internal/queries"
)

func TestFeedbackEWMA(t *testing.T) {
	var f Feedback
	if _, ok := f.Selectivity("d"); ok {
		t.Fatal("fresh feedback reported an estimate")
	}
	f.Observe("d", 1024, 4096) // 0.25
	f.Observe("d", 4096, 4096) // EWMA -> 0.625
	if got, _ := f.Selectivity("d"); got < 0.62 || got > 0.63 {
		t.Fatalf("EWMA after 0.25, 1.0 = %v, want 0.625", got)
	}
	if n := f.Observations("d"); n != 2 {
		t.Fatalf("Observations = %d, want 2", n)
	}
	// Targetless and empty-table observations carry no information.
	f.Observe("", 1, 1)
	f.Observe("d", 1, 0)
	if n := f.Observations("d"); n != 2 {
		t.Fatalf("zero-total observation counted: %d", n)
	}
	// Out-of-range counts clamp instead of poisoning the estimate.
	f.Observe("c", 10, 4)
	if got, _ := f.Selectivity("c"); got != 1 {
		t.Fatalf("rows > total gave selectivity %v, want clamp to 1", got)
	}
}

func TestFeedbackNilReceiver(t *testing.T) {
	var f *Feedback
	f.Observe("d", 1, 2) // must not panic
	if _, ok := f.Selectivity("d"); ok || f.Observations("d") != 0 {
		t.Fatal("nil feedback reported state")
	}
}

// TestObservedSelectivityCostFlip: the cost model must trust an
// observed range selectivity over the DefaultRangeSelectivity prior.
// The same query over the same table flips from index probe to scan
// when execution has seen the range keep nearly every row, and back to
// a much cheaper probe when it keeps almost none.
func TestObservedSelectivityCostFlip(t *testing.T) {
	def := queries.Lookup(core.DCSD, core.Q10)
	if def == nil {
		t.Fatal("no DCSD Q10")
	}
	base := StatValues{DataPages: 512, DataRows: 4096,
		Indexes: map[string]int{"date_of_release": 2}}
	ph, err := Plan(def, base)
	if err != nil {
		t.Fatal(err)
	}
	if ph.Access != AccessIndex {
		t.Fatalf("default prior: got %v, want index probe", ph.Access)
	}
	if ph.FeedbackTarget != "date_of_release" {
		t.Fatalf("FeedbackTarget = %q, want date_of_release", ph.FeedbackTarget)
	}
	priorCost := ph.EstCost

	wide := base
	wide.Feedback = &Feedback{}
	wide.Feedback.Observe("date_of_release", 999, 1000)
	ph, err = Plan(def, wide)
	if err != nil {
		t.Fatal(err)
	}
	if ph.Access != AccessScan {
		t.Fatalf("observed selectivity 0.999: got %v, want scan (probe fetches the whole heap anyway)", ph.Access)
	}
	// The demoted probe must keep its feedback key so execution can
	// still report and re-promote it.
	if ph.FeedbackTarget != "date_of_release" {
		t.Fatalf("scan plan lost FeedbackTarget: %q", ph.FeedbackTarget)
	}

	narrow := base
	narrow.Feedback = &Feedback{}
	narrow.Feedback.Observe("date_of_release", 1, 100)
	ph, err = Plan(def, narrow)
	if err != nil {
		t.Fatal(err)
	}
	if ph.Access != AccessIndex {
		t.Fatalf("observed selectivity 0.01: got %v, want index probe", ph.Access)
	}
	if ph.EstCost >= priorCost {
		t.Fatalf("narrow observation did not cut the probe cost: %v >= %v", ph.EstCost, priorCost)
	}
	wantRows := 0.01 * float64(base.DataRows)
	if ph.EstRows != wantRows {
		t.Fatalf("EstRows = %v, want %v", ph.EstRows, wantRows)
	}
}
