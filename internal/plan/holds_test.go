package plan

import (
	"maps"
	"reflect"
	"testing"

	"xbench/internal/core"
	"xbench/internal/queries"
)

// TestHoldsMeansReplanEqual: whenever a plan Holds under perturbed
// statistics, planning afresh over them builds the same plan, field for
// field — EstCost and EstRows included. Every catalog query of every
// class is planned over a grid of statistics around the index-vs-scan
// crossover (a probe costs height+1 pages, a scan DataPages), and each
// plan is asked about the grid point's neighbours: DataPages and DataRows
// one up and one down, DataRows doubled, each index one level higher or
// lower, every index one level higher, one index gone, and the index set
// built from nothing. Every plan also holds over the statistics it was
// built from.
func TestHoldsMeansReplanEqual(t *testing.T) {
	held, asked := 0, 0
	for _, class := range core.Classes {
		targets := []string{}
		for _, spec := range queries.Indexes(class) {
			targets = append(targets, spec.Target)
		}
		var grid []StatValues
		for _, pages := range []int64{0, 1, 2, 3, 4, 5, 6, 512} {
			for _, rows := range []int64{0, 1, 16, 4096} {
				grid = append(grid, StatValues{DataPages: pages, DataRows: rows})
				for h := 1; h <= 4; h++ {
					grid = append(grid, StatValues{DataPages: pages, DataRows: rows, Indexes: heights(targets, h)})
				}
			}
		}
		for _, def := range queries.ForClass(class) {
			for _, st := range grid {
				ph, err := Plan(def, st)
				if err != nil {
					t.Fatal(err)
				}
				if !ph.Holds(st) {
					t.Errorf("%s %s over %+v: does not hold over its own statistics", class, def.ID, st)
				}
				for _, next := range neighbours(st, targets) {
					asked++
					if !ph.Holds(next) {
						continue
					}
					held++
					fresh, err := Plan(def, next)
					if err != nil {
						t.Fatal(err)
					}
					if ph.EstCost != fresh.EstCost || ph.EstRows != fresh.EstRows || !reflect.DeepEqual(ph, fresh) {
						t.Errorf("%s %s: planned over %+v it holds over %+v, but replanning builds\n%v %s(cost %.1f, rows %.1f)\nnot\n%v %s(cost %.1f, rows %.1f)",
							class, def.ID, st, next, fresh.Access, fresh.IndexTarget, fresh.EstCost, fresh.EstRows, ph.Access, ph.IndexTarget, ph.EstCost, ph.EstRows)
					}
				}
			}
		}
	}
	if held == 0 || held == asked {
		t.Fatalf("%d of %d perturbations held: the grid does not reach both sides of the rule", held, asked)
	}
	t.Logf("%d of %d perturbations held", held, asked)
}

// heights maps every target to height h.
func heights(targets []string, h int) map[string]int {
	m := make(map[string]int, len(targets))
	for _, t := range targets {
		m[t] = h
	}
	return m
}

// neighbours are the perturbations of st TestHoldsMeansReplanEqual asks
// about, each with maps of its own.
func neighbours(st StatValues, targets []string) []StatValues {
	with := func(f func(*StatValues)) StatValues {
		n := st
		n.Indexes = maps.Clone(st.Indexes)
		f(&n)
		return n
	}
	out := []StatValues{
		with(func(n *StatValues) { n.DataPages++ }),
		with(func(n *StatValues) { n.DataPages = max(n.DataPages-1, 0) }),
		with(func(n *StatValues) { n.DataRows++ }),
		with(func(n *StatValues) { n.DataRows = max(n.DataRows-1, 0) }),
		with(func(n *StatValues) { n.DataRows *= 2 }),
		with(func(n *StatValues) {
			for t := range n.Indexes {
				n.Indexes[t]++
			}
		}),
	}
	if st.Indexes == nil {
		return append(out, with(func(n *StatValues) { n.Indexes = heights(targets, 2) }))
	}
	for _, t := range targets {
		out = append(out,
			with(func(n *StatValues) { n.Indexes[t]++ }),
			with(func(n *StatValues) { n.Indexes[t] = max(n.Indexes[t]-1, 0) }),
			with(func(n *StatValues) { delete(n.Indexes, t) }))
	}
	return out
}
