package engbase_test

import (
	"context"
	"reflect"
	"testing"

	"xbench/internal/core"
	"xbench/internal/gen"
	"xbench/internal/plan"
	"xbench/internal/queries"
	"xbench/internal/workload"
)

// explain is Explain or a test failure.
func explain(t *testing.T, e core.Explainer, q core.QueryID) *core.PlanNode {
	t.Helper()
	n, err := e.Explain(context.Background(), q, nil)
	if err != nil {
		t.Fatalf("Explain %s: %v", q, err)
	}
	return n
}

// access is the access-path operator at the bottom of a plan tree.
func access(n *core.PlanNode) string {
	for len(n.Children) > 0 {
		n = n.Children[0]
	}
	return n.Op
}

// plans is the Plans hook of the engines built on engbase.Base: q's plan
// as a read is served it, and as plan.Plan builds it over the same view.
type plans interface {
	Plans(core.QueryID) (served, fresh *plan.Physical, err error)
}

// TestPlanMemoLivesWithTheView: on one published view a query is planned
// once — every Explain hands out the same tree — and a commit carries a
// plan forward only while it is the plan the planner would build over the
// new view: after BuildIndexes the plan is the one over the new indexes
// (on the two engines whose order/@id index is a Table 3 index, not a key
// index that exists from the load, the pre-index scan is not carried and
// turns into a probe), and after a U1 the plan served, carried or not, is
// the planner's own over the new view.
func TestPlanMemoLivesWithTheView(t *testing.T) {
	ctx := context.Background()
	// Enough orders that a probe beats the scan.
	db, err := gen.Config{Orders: 300}.Generate(core.DCMD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	name, doc := workload.UpdateDoc(core.DCMD, 1, 0)
	for _, tc := range engines {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.mk()
			defer e.Close()
			if _, err := e.Load(ctx, db); err != nil {
				t.Fatal(err)
			}
			loaded := explain(t, e, core.Q5)
			if again := explain(t, e, core.Q5); again != loaded {
				t.Fatal("two Explains on one view returned different trees: the plan was rebuilt")
			}
			fresh := func(step string) *core.PlanNode {
				t.Helper()
				served, fresh, err := e.(plans).Plans(core.Q5)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(served, fresh) {
					t.Fatalf("after %s Q5 is served\n%+v\nthe planner builds\n%+v", step, served, fresh)
				}
				return explain(t, e, core.Q5)
			}

			if err := e.BuildIndexes(workload.Indexes(core.DCMD)); err != nil {
				t.Fatal(err)
			}
			indexed := fresh("the index build")
			if access(indexed) != "index-probe" {
				t.Fatalf("Q5 after the index build is the plan of the view before it:\n%s", indexed.Format())
			}
			if wantScan := tc.name == "X-Hive" || tc.name == "Xcolumn"; wantScan != (access(loaded) == "scan") {
				t.Fatalf("Q5 before the index build:\n%s", loaded.Format())
			} else if wantScan && indexed == loaded {
				t.Fatal("the pre-index scan was carried past the index build")
			}

			if err := e.InsertDocument(ctx, name, doc); err != nil {
				t.Fatal(err)
			}
			if after := fresh("a U1"); after.Format() != indexed.Format() {
				t.Fatalf("one inserted order changed Q5's plan:\n%s\nwas\n%s", after.Format(), indexed.Format())
			}
			if res, err := e.Execute(ctx, core.Q5, core.Params{"X": workload.UpdateTargetID(core.DCMD, 1)}); err != nil || len(res.Items) != 1 {
				t.Fatalf("Q5 for the inserted order = %v, %v", res.Items, err)
			}
		})
	}
}

// TestMemoizedPlansAreThePlannersPlans: for every query of DC/MD, TC/MD
// and DC/SD (whose Q10, Q11 and Q14 are ranges), on every engine that
// loads the class, what a read is served — on the first call and from the
// cell on the second — is what plan.Plan builds from the store's
// statistics of the same view, field for field.
func TestMemoizedPlansAreThePlannersPlans(t *testing.T) {
	ctx := context.Background()
	for _, class := range []core.Class{core.DCMD, core.TCMD, core.DCSD} {
		db, err := gen.Config{Orders: 20, Articles: 4, Items: 120}.Generate(class, core.Small)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range engines {
			if !supported(tc.mk, class) {
				continue
			}
			t.Run(class.Code()+"/"+tc.name, func(t *testing.T) {
				e := tc.mk()
				defer e.Close()
				if _, _, err := workload.LoadAndIndex(ctx, e, db); err != nil {
					t.Fatal(err)
				}
				planner := e.(interface {
					Plans(core.QueryID) (served, fresh *plan.Physical, err error)
				})
				for _, def := range queries.ForClass(class) {
					first, fresh, err := planner.Plans(def.ID)
					if err != nil {
						t.Fatalf("%s: %v", def.ID, err)
					}
					second, _, _ := planner.Plans(def.ID)
					if second != first {
						t.Errorf("%s: planned twice on one view", def.ID)
					}
					if !reflect.DeepEqual(second, fresh) {
						t.Errorf("%s: served plan\n%+v\nplanner's\n%+v", def.ID, second, fresh)
					}
				}
			})
		}
	}
}

// supported reports whether an engine made by mk loads class at Small.
func supported(mk func() engine, class core.Class) bool {
	e := mk()
	defer e.Close()
	return e.Supports(class, core.Small) == nil
}

// TestRangePlanStaysInItsCell: a range query is planned once per view,
// like any other. On every engine that loads DC/SD, Q10 is planned by its
// first Explain, and Executes that bind a window keeping every row, then
// windows keeping none, leave the cell alone: later Explains hand out the
// same tree, and no reader plans again. On the shredding engines the plan
// is the range probe.
func TestRangePlanStaysInItsCell(t *testing.T) {
	ctx := context.Background()
	// Enough items that the probe beats the scan on the shredding engines.
	db, err := gen.Config{DictEntries: 30, Articles: 6, Items: 120, Orders: 30}.Generate(core.DCSD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range engines {
		if !supported(tc.mk, core.DCSD) {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			e := tc.mk()
			defer e.Close()
			if _, _, err := workload.LoadAndIndex(ctx, e, db); err != nil {
				t.Fatal(err)
			}
			planned := e.Pager().Metrics().Counter("plan.cell.planned")
			first := explain(t, e, core.Q10)
			if shredded := tc.name == "Xcollection" || tc.name == "SQL Server"; shredded && access(first) != "index-probe" {
				t.Fatalf("premise broken: Q10 is planned as\n%s", first.Format())
			}
			n := planned.Value()
			windows := []core.Params{{"LO": "0000-01-01", "HI": "9999-12-31"}}
			for i := 0; i < 10; i++ {
				windows = append(windows, core.Params{"LO": "0001-01-01", "HI": "0001-01-02"})
			}
			for _, w := range windows {
				if _, err := e.Execute(ctx, core.Q10, w); err != nil {
					t.Fatal(err)
				}
			}
			if again := explain(t, e, core.Q10); again != first {
				t.Fatalf("Q10 was planned again on one view:\n%s\nwas\n%s", again.Format(), first.Format())
			}
			if d := planned.Value() - n; d != 0 {
				t.Errorf("%d Q10 executions on one view planned %d times", len(windows), d)
			}
		})
	}
}
