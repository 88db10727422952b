package rdbms

import (
	"context"
	"testing"

	"xbench/internal/core"
	"xbench/internal/gen"
	"xbench/internal/queries"
)

// TestRelationalAllocationPins pins what a warm in-process DC/MD Q1 point
// read allocates on each policy, at Small and seed 7: exactly, because
// every buffer the read reuses (the tree's run, Xcolumn's parsed CLOB)
// waits for it in a free list that keeps it, with or without the race
// detector. The counts may only fall.
func TestRelationalAllocationPins(t *testing.T) {
	ctx := context.Background()
	db, err := gen.Config{Seed: 7}.Generate(core.DCMD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{"X": "O1"}
	for _, c := range []struct {
		name string
		pol  Policy
		want float64
	}{
		{"sqlserver", SQLServer, 7},
		{"xcollection", Xcollection, 7},
		{"xcolumn", Xcolumn, 10},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := New(c.pol, 0, 0)
			defer e.Close()
			if _, err := e.Load(ctx, db); err != nil {
				t.Fatal(err)
			}
			if err := e.BuildIndexes(queries.Indexes(core.DCMD)); err != nil {
				t.Fatal(err)
			}
			q1 := func() {
				res, err := e.Execute(ctx, core.Q1, p)
				if err != nil || len(res.Items) != 1 {
					t.Fatalf("Q1 = %v, %v", res.Items, err)
				}
			}
			q1() // the view's plan and the free lists' entries exist
			if n := testing.AllocsPerRun(100, q1); n != c.want {
				t.Errorf("a warm Q1 allocates %v times, want %v", n, c.want)
			}
		})
	}
}
