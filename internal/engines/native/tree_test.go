package native

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xbench/internal/core"
	"xbench/internal/gen"
	"xbench/internal/metrics"
	"xbench/internal/plan"
	"xbench/internal/queries"
	"xbench/internal/workload"
)

// updatePlans rewrites the golden trees instead of diffing them:
//
//	go test ./internal/engines/native -run TestGoldenPlans -update-plans
var updatePlans = flag.Bool("update-plans", false, "rewrite the results/plans/native golden files")

// goldenDir is the checked-in corpus of native's trees, one file per
// (class, query) cell, drawn over fixture statistics so it is
// machine-independent.
const goldenDir = "../../../results/plans/native"

// TestGoldenPlans draws the tree of every catalog cell over
// plan.FixtureStats and diffs it against its corpus. A diff means the
// plan or the access Exec takes for it changed: inspect it, then refresh
// with -update-plans.
func TestGoldenPlans(t *testing.T) {
	if *updatePlans {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	cells := 0
	for _, class := range core.Classes {
		for _, def := range queries.ForClass(class) {
			ph, err := plan.Plan(def, plan.FixtureStats(class))
			if err != nil {
				t.Fatalf("%s %s: %v", class, def.ID, err)
			}
			cells++
			got := fmt.Sprintf("# %s %s\n%s", class, def.ID, tree(ph).Format())
			slug := strings.ToLower(strings.ReplaceAll(class.String(), "/", ""))
			path := filepath.Join(goldenDir, fmt.Sprintf("%s_q%02d.txt", slug, int(def.ID)))
			if *updatePlans {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Errorf("%s %s: missing golden %s (run with -update-plans): %v", class, def.ID, path, err)
				continue
			}
			if got != string(want) {
				t.Errorf("%s %s: tree drifted from %s\n--- got\n%s--- want\n%s", class, def.ID, path, got, want)
			}
		}
	}
	// The workload defines 59 cells: a planner regression that made Plan
	// fail would otherwise shrink the diff surface silently.
	if cells != 59 {
		t.Errorf("drew %d trees, the catalog holds 59", cells)
	}
}

// ran is what one Execute did at the operators a native tree draws:
// evaluator runs, catalog walks and index probes — each records its phase
// once per run — and the documents its walk opened.
type ran struct{ evals, walks, probes, opened int64 }

func counts(reg *metrics.Registry) ran {
	return ran{
		evals:  reg.Histogram("phase." + metrics.PhaseEval).Count(),
		walks:  reg.Histogram("phase." + metrics.PhaseScan).Count(),
		probes: reg.Histogram("phase." + metrics.PhaseIndexProbe).Count(),
		opened: reg.Counter("native.memo.hit").Value() + reg.Counter("native.memo.miss").Value(),
	}
}

// drawn is what running the tree rooted at n does: an evaluate is one
// evaluator run, a scan or a doc-lookup one catalog walk, an index-probe
// one probe. A scan leaf opens all docs, a doc-lookup one document, and a
// walk over a probe what the probe matched (opened -1: not predicted).
func drawn(t *testing.T, n *core.PlanNode, docs int64) ran {
	want := ran{opened: -1}
	var visit func(*core.PlanNode)
	visit = func(n *core.PlanNode) {
		switch n.Op {
		case "evaluate":
			want.evals++
		case "scan":
			want.walks++
			if len(n.Children) == 0 {
				want.opened = docs
			}
		case "doc-lookup":
			want.walks++
			want.opened = 1
		case "index-probe":
			want.probes++
		default:
			t.Errorf("native drew a %q node", n.Op)
		}
		for _, k := range n.Children {
			visit(k)
		}
	}
	visit(n)
	return want
}

// TestExplainedTreeIsExecuted: for every catalog cell, Execute runs the
// tree Explain draws — every node of it is entered, and the catalog walk
// and the probe that run are the drawn ones, no more — on its first run
// and on the next, which an earlier run must not have re-planned. The
// runs are over the Small database of seed 7 and over the one
// TestCrossEngineEquivalence checks, with the Table 3 indexes built;
// between them they run every access path a native tree draws.
func TestExplainedTreeIsExecuted(t *testing.T) {
	ctx := context.Background()
	accesses := map[string]bool{}
	for _, class := range core.Classes {
		for _, cfg := range []gen.Config{{Seed: 7}, {DictEntries: 50, Articles: 8, Items: 30, Orders: 50}} {
			db, err := cfg.Generate(class, core.Small)
			if err != nil {
				t.Fatal(err)
			}
			e := New(0)
			if _, err := e.Load(ctx, db); err != nil {
				t.Fatal(err)
			}
			if err := e.BuildIndexes(queries.Indexes(class)); err != nil {
				t.Fatal(err)
			}
			docs, reg := int64(docCount(t, e)), e.Metrics()
			for _, def := range queries.ForClass(class) {
				node, err := e.Explain(ctx, def.ID, nil)
				if err != nil {
					t.Fatal(err)
				}
				want := drawn(t, node, docs)
				for run := 1; run <= 2; run++ {
					before := counts(reg)
					if _, err := e.Execute(ctx, def.ID, workload.Params(class)); err != nil {
						t.Fatalf("%s %s: %v", class, def.ID, err)
					}
					after := counts(reg)
					got := ran{after.evals - before.evals, after.walks - before.walks, after.probes - before.probes, after.opened - before.opened}
					if want.opened < 0 {
						got.opened = -1
					}
					if got != want {
						t.Errorf("%s %s: Execute run %d ran %+v, Explain draws %+v:\n%s", class, def.ID, run, got, want, node.Format())
					}
				}
				leaf := node
				for len(leaf.Children) > 0 {
					leaf = leaf.Children[0]
				}
				accesses[leaf.Op] = true
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, op := range []string{"scan", "index-probe", "doc-lookup"} {
		if !accesses[op] {
			t.Errorf("no cell ran a %s", op)
		}
	}
}

// TestUnboundDocOpensNothing: a doc($DOC) query with no DOC bound fails
// before its catalog walk. On a cold engine it reads no page and opens no
// document.
func TestUnboundDocOpensNothing(t *testing.T) {
	ctx := context.Background()
	for _, class := range []core.Class{core.DCMD, core.TCMD} {
		e, _ := loadTiny(t, class)
		e.ColdReset()
		hit, miss := e.Metrics().Counter("native.memo.hit"), e.Metrics().Counter("native.memo.miss")
		hits, misses, io := hit.Value(), miss.Value(), e.PageIO()
		if _, err := e.Execute(ctx, core.Q16, nil); err == nil {
			t.Fatalf("%s Q16 with no DOC answered", class)
		}
		if d := e.PageIO() - io; d != 0 {
			t.Errorf("%s Q16 with no DOC read %d pages", class, d)
		}
		if hit.Value() != hits || miss.Value() != misses {
			t.Errorf("%s Q16 with no DOC opened %d memoized and %d stored documents", class, hit.Value()-hits, miss.Value()-misses)
		}
	}
}
