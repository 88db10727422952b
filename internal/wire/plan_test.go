package wire

import (
	"errors"
	"reflect"
	"testing"

	"xbench/internal/core"
)

// TestPlanNodeRoundTrip: the OpExplain payload codec preserves the tree
// exactly, including fractional cost estimates and deep nesting.
func TestPlanNodeRoundTrip(t *testing.T) {
	n := &core.PlanNode{
		Op: "construct",
		Children: []*core.PlanNode{{
			Op: "sort", Detail: "order by",
			Children: []*core.PlanNode{{
				Op: "index-probe", Target: "date_of_release",
				Detail:   "date_of_release in [$LO..$HI]",
				EstPages: 130.25, EstRows: 1024,
			}},
		}},
	}
	got, err := DecodePlanNode(AppendPlanNode(nil, n))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, n) {
		t.Fatalf("round trip drifted:\ngot  %+v\nwant %+v", got, n)
	}
}

// TestPlanNodeDecodeCorrupt: truncation, trailing garbage and absurd
// child counts are errors, never panics or giant allocations.
func TestPlanNodeDecodeCorrupt(t *testing.T) {
	good := AppendPlanNode(nil, &core.PlanNode{Op: "scan", Target: "order"})
	for i := 1; i < len(good); i++ {
		if _, err := DecodePlanNode(good[:i]); err == nil {
			t.Fatalf("truncation at %d decoded without error", i)
		}
	}
	if _, err := DecodePlanNode(append(append([]byte(nil), good...), 0)); err == nil {
		t.Error("trailing byte decoded without error")
	}
	// Declare 2^40 children with no bytes behind them.
	e := enc{}
	e.string("scan")
	e.string("")
	e.string("")
	e.uvarint(0)
	e.uvarint(0)
	e.uvarint(1 << 40)
	if _, err := DecodePlanNode(e.b); err == nil {
		t.Error("absurd child count decoded without error")
	}
}

// TestPlanNodeDecodeDeep: recursion is depth-bounded.
func TestPlanNodeDecodeDeep(t *testing.T) {
	n := &core.PlanNode{Op: "leaf"}
	for i := 0; i < maxPlanDepth+8; i++ {
		n = &core.PlanNode{Op: "wrap", Children: []*core.PlanNode{n}}
	}
	if _, err := DecodePlanNode(AppendPlanNode(nil, n)); err == nil {
		t.Error("over-deep tree decoded without error")
	}
}

// TestExplainStatusMapping: core.ErrNoExplain crosses the wire as
// StatusNoExplain and reconstructs so errors.Is holds on the client;
// StatusBadRequest reconstructs as ErrBadRequest (the probe old servers
// answer for ops they predate).
func TestExplainStatusMapping(t *testing.T) {
	if s := StatusFor(core.ErrNoExplain); s != StatusNoExplain {
		t.Fatalf("StatusFor(ErrNoExplain) = %v", s)
	}
	err := DecodeError(StatusNoExplain, []byte("stub engine"))
	if !errors.Is(err, core.ErrNoExplain) {
		t.Fatalf("decoded %v, want ErrNoExplain wrap", err)
	}
	err = DecodeError(StatusBadRequest, []byte("unknown op 11"))
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("decoded %v, want ErrBadRequest wrap", err)
	}
	if OpExplain.String() != "explain" {
		t.Errorf("OpExplain.String() = %q", OpExplain.String())
	}
}
