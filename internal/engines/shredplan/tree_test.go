package shredplan

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
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
	"xbench/internal/xmlschema"
)

// updatePlans rewrites the golden trees instead of diffing them:
//
//	go test ./internal/engines/shredplan -run TestGoldenPlans -update-plans
var updatePlans = flag.Bool("update-plans", false, "rewrite the results/plans/shredded and results/plans/xcolumn golden files")

// goldenDirs are the checked-in corpora of each layout's trees, one file
// per (class, query) it answers, drawn over fixture statistics.
var goldenDirs = [...]string{xmlschema.Shredded: "../../../results/plans/shredded", xmlschema.DAD: "../../../results/plans/xcolumn"}

// TestGoldenPlans draws every tree of both layouts over plan.FixtureStats
// and diffs it against its corpus. A diff means a tree or the plan it is
// drawn with changed: inspect it, then refresh with -update-plans.
func TestGoldenPlans(t *testing.T) {
	for l, dir := range goldenDirs {
		if *updatePlans {
			if err := os.MkdirAll(dir, 0o755); err != nil {
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
				tree, err := Explain(xmlschema.Mapping(l), class, ph)
				if errors.Is(err, core.ErrNoQuery) {
					continue
				}
				if err != nil {
					t.Fatalf("%s %s: %v", class, def.ID, err)
				}
				cells++
				got := fmt.Sprintf("# %s %s\n%s", class, def.ID, tree.Format())
				slug := strings.ToLower(strings.ReplaceAll(class.String(), "/", ""))
				path := filepath.Join(dir, fmt.Sprintf("%s_q%02d.txt", slug, int(def.ID)))
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
		if cells != len(trees[l]) {
			t.Errorf("%s: drew %d trees, the table holds %d", dir, cells, len(trees[l]))
		}
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
func loadLikeTheEngine(t *testing.T, db *core.Database, opts shredder.Options) Source {
	t.Helper()
	s := shredder.NewStore(db.Class, xmlschema.Shredded, relational.NewDB(pager.New(0)), opts)
	for _, d := range db.Docs {
		doc := new(xmldom.Record)
		if err := xmldom.ParseRecord(doc, d.Data); err != nil {
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
		if table, c, ok := shredder.TargetColumn(db.Class, xmlschema.Shredded, spec.Target); ok {
			if err := s.DB.Table(table).CreateIndex(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	return frozen(t, s)
}

// loadLikeXcolumn stores db as Xcolumn does — each document a CLOB, its
// side-table rows beside it — and builds the Table 3 indexes.
func loadLikeXcolumn(t *testing.T, db *core.Database) Source {
	t.Helper()
	p := pager.New(0)
	clobs, tables := pager.NewHeap(p, "clobs"), relational.NewDB(p)
	side := shredder.NewStore(db.Class, xmlschema.DAD, tables, shredder.Options{})
	for _, d := range db.Docs {
		doc := new(xmldom.Record)
		if err := xmldom.ParseRecord(doc, d.Data); err != nil {
			t.Fatal(err)
		}
		rid, err := clobs.Insert(d.Data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := side.ShredDocument(strconv.FormatUint(uint64(rid), 10), doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := clobs.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, spec := range queries.Indexes(db.Class) {
		if table, c, ok := shredder.TargetColumn(db.Class, xmlschema.DAD, spec.Target); ok {
			if err := tables.Table(table).CreateIndex(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.SyncAll(); err != nil {
		t.Fatal(err)
	}
	return Source{Mapping: xmlschema.DAD, Class: db.Class, DB: tables.View(p.SnapshotEpoch()),
		CLOBs: clobs.View(p.SnapshotEpoch())}
}

// TestExplainedTreeIsExecuted: for every tree — the shredded ones on both
// policies, Xcolumn's — the tree Exec walks at the catalog bindings is the
// one Explain draws for the same plan, and the runs enter every node of it:
// no operator Explain shows is one the engine skips. The runs are over the
// Small database of seed 7 and over the one TestCrossEngineEquivalence
// checks, whose article a1 has the abstract seed 7's lacks (TC/MD Q12 and
// Q13 look its paragraphs up only then).
func TestExplainedTreeIsExecuted(t *testing.T) {
	ctx := context.Background()
	stores := []struct {
		name   string
		layout xmlschema.Mapping
		load   func(*testing.T, *core.Database) Source
	}{
		{"shredded", xmlschema.Shredded, func(t *testing.T, db *core.Database) Source {
			return loadLikeTheEngine(t, db, shredder.Options{})
		}},
		{"shredded, mixed dropped", xmlschema.Shredded, func(t *testing.T, db *core.Database) Source {
			return loadLikeTheEngine(t, db, shredder.Options{DropMixed: true})
		}},
		{"xcolumn", xmlschema.DAD, loadLikeXcolumn},
	}
	for _, class := range core.Classes {
		var dbs []*core.Database
		for _, cfg := range []gen.Config{{Seed: 7}, {DictEntries: 50, Articles: 8, Items: 30, Orders: 50}} {
			db, err := cfg.Generate(class, core.Small)
			if err != nil {
				t.Fatal(err)
			}
			dbs = append(dbs, db)
		}
		for _, st := range stores {
			if st.layout == xmlschema.DAD && class.SingleDocument() {
				continue
			}
			entered := map[*Node]bool{}
			for _, db := range dbs {
				v := st.load(t, db)
				for _, def := range queries.ForClass(class) {
					root := trees[st.layout][cell{class, def.ID}]
					if root == nil {
						continue
					}
					ph, err := physical(v, def.ID)
					if err != nil {
						t.Fatal(err)
					}
					explained, err := Explain(st.layout, class, ph)
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
						t.Fatalf("%s %s (%s): %v", class, def.ID, st.name, err)
					}
					if got, want := walked.plan(ph).Format(), explained.Format(); walked != root || got != want {
						t.Errorf("%s %s (%s): Exec walked\n%sExplain draws\n%s", class, def.ID, st.name, got, want)
					}
				}
			}
			for _, def := range queries.ForClass(class) {
				if root := trees[st.layout][cell{class, def.ID}]; root != nil {
					root.nodes(func(n *Node) {
						if !entered[n] {
							t.Errorf("%s %s (%s): no run entered\n%s", class, def.ID, st.name, n.plan(&plan.Physical{}).Format())
						}
					})
				}
			}
		}
	}
}
