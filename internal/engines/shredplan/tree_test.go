package shredplan

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xbench/internal/core"
	"xbench/internal/gen"
	"xbench/internal/pager"
	"xbench/internal/plan"
	"xbench/internal/queries"
	"xbench/internal/relational"
	"xbench/internal/shredder"
	"xbench/internal/workload"
	"xbench/internal/xmldom"
)

// updatePlans rewrites the golden trees instead of diffing them:
//
//	go test ./internal/engines/shredplan -run TestGoldenPlans -update-plans
var updatePlans = flag.Bool("update-plans", false, "rewrite results/plans/shredded golden files")

// goldenDir is the checked-in corpus of the shredding engines' trees, one
// file per (class, query) they answer, drawn over fixture statistics.
const goldenDir = "../../../results/plans/shredded"

// TestGoldenPlans draws every tree over plan.FixtureStats and diffs it
// against results/plans/shredded. A diff means a tree or the plan it is
// drawn with changed: inspect it, then refresh with -update-plans.
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
			tree, err := Explain(class, ph)
			if errors.Is(err, core.ErrNoQuery) {
				continue
			}
			if err != nil {
				t.Fatalf("%s %s: %v", class, def.ID, err)
			}
			cells++
			got := fmt.Sprintf("# %s %s\n%s", class, def.ID, tree.Format())
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
	if cells != len(trees) {
		t.Errorf("drew %d trees, the table holds %d", cells, len(trees))
	}
}

// nodes calls fn on every node of the tree rooted at n.
func (n *Node) nodes(fn func(*Node)) {
	fn(n)
	for _, k := range n.kids {
		k.nodes(fn)
	}
}

// loadLikeTheEngine shreds db into a store with opts and builds the
// indexes the shredding engine has when it answers: the key indexes of the
// bulk load and the Table 3 indexes.
func loadLikeTheEngine(t *testing.T, db *core.Database, opts shredder.Options) shredder.View {
	t.Helper()
	s := shredder.NewStore(db.Class, relational.NewDB(pager.New(0)), opts)
	for _, d := range db.Docs {
		doc, err := xmldom.Parse(d.Data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.ShredDocument(d.Name, doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, name := range s.DB.TableNames() {
		for _, c := range shredder.Columns(name) {
			if c == "id" || strings.HasSuffix(c, "_id") {
				if err := s.DB.Table(name).CreateIndex(c); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, spec := range queries.Indexes(db.Class) {
		if table, c, ok := shredder.TargetColumn(db.Class, spec.Target); ok {
			if err := s.DB.Table(table).CreateIndex(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	return frozen(t, s)
}

// TestExplainedTreeIsExecuted: for every tree on both policies, the tree
// Exec walks at the catalog bindings is the one Explain draws for the same
// plan, and the runs enter every node of it — no operator Explain shows is
// one the engine skips. The runs are over the Small database of seed 7 and
// over the one TestCrossEngineEquivalence checks, whose article a1 has the
// abstract seed 7's lacks (TC/MD Q12 and Q13 look its paragraphs up only
// then).
func TestExplainedTreeIsExecuted(t *testing.T) {
	ctx := context.Background()
	for _, class := range core.Classes {
		var dbs []*core.Database
		for _, cfg := range []gen.Config{{Seed: 7}, {DictEntries: 50, Articles: 8, Items: 30, Orders: 50}} {
			db, err := cfg.Generate(class, core.Small)
			if err != nil {
				t.Fatal(err)
			}
			dbs = append(dbs, db)
		}
		for _, opts := range []shredder.Options{{}, {DropMixed: true}} {
			entered := map[*Node]bool{}
			for _, db := range dbs {
				v := loadLikeTheEngine(t, db, opts)
				for _, def := range queries.ForClass(class) {
					root := trees[cell{class, def.ID}]
					if root == nil {
						continue
					}
					ph, err := physical(v, nil, def.ID)
					if err != nil {
						t.Fatal(err)
					}
					explained, err := Explain(class, ph)
					if err != nil {
						t.Fatal(err)
					}
					var walked *Node
					if _, err := exec(ctx, v, ph, workload.Params(class), func(n *Node) {
						if walked == nil {
							walked = n
						}
						entered[n] = true
					}); err != nil {
						t.Fatalf("%s %s: %v", class, def.ID, err)
					}
					if got, want := walked.plan(ph).Format(), explained.Format(); walked != root || got != want {
						t.Errorf("%s %s (drop mixed %v): Exec walked\n%sExplain draws\n%s", class, def.ID, opts.DropMixed, got, want)
					}
				}
			}
			for _, def := range queries.ForClass(class) {
				if root := trees[cell{class, def.ID}]; root != nil {
					root.nodes(func(n *Node) {
						if !entered[n] {
							t.Errorf("%s %s (drop mixed %v): no run entered\n%s", class, def.ID, opts.DropMixed, n.plan(&plan.Physical{}).Format())
						}
					})
				}
			}
		}
	}
}
