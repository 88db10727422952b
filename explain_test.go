package xbench

import (
	"context"
	"errors"
	"strings"
	"testing"

	"xbench/internal/core"
	"xbench/internal/workload"
)

// TestExplainFacade: every built-in engine New builds explains its plans
// (core.Explain), and the DC/SD Q5 plan shows the index probe the paper's
// ordered-access cell depends on: under the limit pushdown on the
// relational engines, under the evaluator, which takes the [1] itself,
// on the native one.
func TestExplainFacade(t *testing.T) {
	ctx := context.Background()
	db, err := Generate(DCSD, Small)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"native":      "evaluate\n  scan catalog [probed documents]\n    index-probe item/@id",
		"xcollection": "limit 1 [limit-pushdown]",
		"sqlserver":   "limit 1 [limit-pushdown]",
	} {
		e := mustNew(t, name)
		if _, err := LoadAndIndex(ctx, e, db); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		node, err := core.Explain(ctx, e, Q5, workload.Params(DCSD))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		out := node.Format()
		if !strings.Contains(out, want) {
			t.Errorf("%s: Q5 plan lost %q:\n%s", e.Name(), want, out)
		}
		// Asking about a query the class does not define is an
		// ErrNoQuery, not a panic.
		if _, err := core.Explain(ctx, e, QueryID(99), nil); !errors.Is(err, core.ErrNoQuery) {
			t.Errorf("%s: undefined query err = %v, want ErrNoQuery", e.Name(), err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
