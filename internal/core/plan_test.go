package core

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// planOnlyEngine implements Engine but not Explainer.
type planOnlyEngine struct{ Engine }

func (planOnlyEngine) Name() string { return "opaque" }

// explainEngine adds Explainer on top.
type explainEngine struct {
	planOnlyEngine
	node *PlanNode
}

func (e explainEngine) Explain(context.Context, QueryID, Params) (*PlanNode, error) {
	return e.node, nil
}

// TestExplainFallback: engines without Explainer degrade to an error
// wrapping ErrNoExplain, not a panic or a bare failure.
func TestExplainFallback(t *testing.T) {
	_, err := Explain(context.Background(), planOnlyEngine{}, Q1, nil)
	if !errors.Is(err, ErrNoExplain) {
		t.Fatalf("err = %v, want ErrNoExplain", err)
	}
	if !strings.Contains(err.Error(), "opaque") {
		t.Errorf("err %q does not name the engine", err)
	}
}

// TestExplainDispatch: engines that do implement Explainer are served
// through the same entry point.
func TestExplainDispatch(t *testing.T) {
	want := &PlanNode{Op: "scan", Target: "order"}
	got, err := Explain(context.Background(), explainEngine{node: want}, Q1, nil)
	if err != nil || got != want {
		t.Fatalf("got %v, %v; want the engine's node", got, err)
	}
}

// TestPlanNodeFormat: the printable tree is the API's stable surface —
// indentation, detail brackets, and cost suffix.
func TestPlanNodeFormat(t *testing.T) {
	n := &PlanNode{
		Op: "limit", Target: "1", Detail: "limit-pushdown",
		Children: []*PlanNode{{
			Op: "index-probe", Target: "item/@id", Detail: "@id = $X",
			EstPages: 3, EstRows: 1,
		}},
	}
	want := "limit 1 [limit-pushdown]\n  index-probe item/@id [@id = $X] (cost=3.0 rows=1)\n"
	if got := n.Format(); got != want {
		t.Fatalf("Format:\n%q\nwant\n%q", got, want)
	}
	if got := n.String(); got != strings.TrimRight(want, "\n") {
		t.Fatalf("String: %q", got)
	}
}
