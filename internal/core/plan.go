package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
)

// PlanNode is one operator in a physical query plan. Engines return a
// tree of these from Explain; the wire layer serializes them, and the
// CLI prints them with Format. The string fields are stable, printable
// vocabulary — goldens under results/plans/ diff them — so changes to
// Op names are plan regressions, not refactors.
type PlanNode struct {
	// Op is the operator name: "evaluate", "scan", "index-probe",
	// "doc-lookup", "filter", "join", "semi-join", "sort", "limit",
	// "construct", "aggregate", "clob", "clobs".
	Op string
	// Target names what the operator touches: a heap/table, an index
	// target ("item/@id"), or a document parameter.
	Target string
	// Detail is a free-form qualifier: the predicate, the join key,
	// the pushdown rule that produced this node.
	Detail string
	// EstPages and EstRows are the cost model's estimates. Zero means
	// "not costed" (pass-through operators).
	EstPages float64
	EstRows  float64
	Children []*PlanNode
}

// Format renders the plan tree one operator per line, children indented
// two spaces, costed operators suffixed with (cost=pages rows=n). The
// output is stable: it is what golden plan files store.
func (n *PlanNode) Format() string {
	var b strings.Builder
	n.format(&b, 0)
	return b.String()
}

func (n *PlanNode) format(b *strings.Builder, depth int) {
	if n == nil {
		return
	}
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(n.Op)
	if n.Target != "" {
		b.WriteString(" ")
		b.WriteString(n.Target)
	}
	if n.Detail != "" {
		b.WriteString(" [")
		b.WriteString(n.Detail)
		b.WriteString("]")
	}
	if n.EstPages != 0 || n.EstRows != 0 {
		fmt.Fprintf(b, " (cost=%.1f rows=%.0f)", n.EstPages, n.EstRows)
	}
	b.WriteString("\n")
	for _, c := range n.Children {
		c.format(b, depth+1)
	}
}

// String implements fmt.Stringer.
func (n *PlanNode) String() string { return strings.TrimRight(n.Format(), "\n") }

// ErrNoExplain reports that an engine cannot produce a plan: an Engine
// that does not implement Explainer, locally or behind a server. Match
// with errors.Is.
var ErrNoExplain = errors.New("engine does not support explain")

// Explainer is the optional extension to Engine: engines that plan
// queries expose the costed physical plan without executing it.
type Explainer interface {
	// Explain returns the physical plan Execute would run for (q, p).
	// The tree is a fresh copy the caller may mutate.
	Explain(ctx context.Context, q QueryID, p Params) (*PlanNode, error)
}

// Explain returns e's plan for (q, p) if the engine supports planning,
// and a wrapped ErrNoExplain otherwise, so an engine that cannot explain
// answers with a typed error instead of panicking.
func Explain(ctx context.Context, e Engine, q QueryID, p Params) (*PlanNode, error) {
	if ex, ok := e.(Explainer); ok {
		return ex.Explain(ctx, q, p)
	}
	return nil, fmt.Errorf("core: %s: %w", e.Name(), ErrNoExplain)
}
