package client

import (
	"context"
	"testing"

	"xbench/internal/core"
	"xbench/internal/wire"
)

// TestExplainRoundTrip: a well-formed plan payload decodes through the
// client path.
func TestExplainRoundTrip(t *testing.T) {
	want := &core.PlanNode{Op: "scan", Target: "order", Detail: "sequential", EstPages: 512, EstRows: 4096}
	fs := newFakeServer(t, func(_ int, f wire.Frame) (wire.Frame, bool) {
		return okFrame(wire.EncodePlanNode(want)), false
	})
	c := fs.client(Config{})
	defer c.Close()
	got, err := c.Explain(context.Background(), core.Q10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != "scan" || got.Target != "order" || got.EstPages != 512 {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}
