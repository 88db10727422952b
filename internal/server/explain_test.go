package server_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"xbench/internal/core"
	"xbench/internal/server"
)

// explainStub is the stub engine plus core.Explainer: it answers a fixed
// plan tree and records the query it was asked about.
type explainStub struct {
	*stubEngine
	node *core.PlanNode
}

func (s *explainStub) Explain(_ context.Context, q core.QueryID, _ core.Params) (*core.PlanNode, error) {
	if q == core.Q20 {
		return nil, core.ErrNoQuery
	}
	return s.node, nil
}

func testPlan() *core.PlanNode {
	return &core.PlanNode{
		Op: "limit", Target: "1", Detail: "limit-pushdown",
		Children: []*core.PlanNode{{
			Op: "index-probe", Target: "item/@id", Detail: "@id = $X",
			EstPages: 3, EstRows: 1,
		}},
	}
}

// TestExplainOverWire: a remote Explain returns the engine's plan tree
// bit-for-bit.
func TestExplainOverWire(t *testing.T) {
	eng := &explainStub{stubEngine: newStub(), node: testPlan()}
	_, c := startServer(t, eng, server.Config{})
	got, err := c.Explain(context.Background(), core.Q5, core.Params{"X": "I1"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, eng.node) {
		t.Fatalf("plan drifted:\ngot  %+v\nwant %+v", got, eng.node)
	}
	// Engine errors still cross typed.
	if _, err := c.Explain(context.Background(), core.Q20, nil); !errors.Is(err, core.ErrNoQuery) {
		t.Fatalf("Q20 err = %v, want ErrNoQuery", err)
	}
}

// TestExplainEngineWithoutExplainer: serving an engine that cannot
// explain answers StatusNoExplain, which the client surfaces as
// core.ErrNoExplain — same sentinel as a local opaque engine.
func TestExplainEngineWithoutExplainer(t *testing.T) {
	_, c := startServer(t, newStub(), server.Config{})
	_, err := c.Explain(context.Background(), core.Q5, nil)
	if !errors.Is(err, core.ErrNoExplain) {
		t.Fatalf("err = %v, want ErrNoExplain", err)
	}
}
