package chaos

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"xbench/internal/core"
	"xbench/internal/engines/native"
	"xbench/internal/engines/rdbms"
	"xbench/internal/gen"
	"xbench/internal/pager"
	"xbench/internal/updatelog"
	"xbench/internal/workload"
)

var testGen = gen.Config{DictEntries: 40, Articles: 6, Items: 20, Orders: 40}

func factories() map[string]func() core.Engine {
	return map[string]func() core.Engine{
		"X-Hive":      func() core.Engine { return native.New(64) },
		"Xcolumn":     func() core.Engine { return rdbms.New(rdbms.Xcolumn, 64, 0) },
		"Xcollection": func() core.Engine { return rdbms.New(rdbms.Xcollection, 64, 0) },
		"SQL Server":  func() core.Engine { return rdbms.New(rdbms.SQLServer, 64, 0) },
	}
}

var gridClasses = []core.Class{core.TCSD, core.TCMD, core.DCSD, core.DCMD}

// gridCells holds each engine x class cell, run once per test binary (a
// cell is deterministic, so a second run is the same run):
// TestAllEnginesAllClasses, TestUpdateCellsAllEngines and
// TestCellCatchesALostUpdate read the same outcomes.
var (
	gridDBs   = map[core.Class]*core.Database{}
	gridCells = map[string]Outcome{}
)

func gridCell(t *testing.T, name string, class core.Class) Outcome {
	t.Helper()
	key := name + "/" + class.Code()
	if out, ok := gridCells[key]; ok {
		return out
	}
	db := gridDBs[class]
	if db == nil {
		var err error
		if db, err = testGen.Generate(class, core.Small); err != nil {
			t.Fatal(err)
		}
		gridDBs[class] = db
	}
	out := RunCell(factories()[name], db, 3)
	gridCells[key] = out
	return out
}

// TestAllEnginesAllClasses is the acceptance criterion: every engine x
// class cell survives >= 3 distinct crash points, restarts from each, and
// answers every query exactly like the fault-free twin; a single-document
// cell crashes only its load.
func TestAllEnginesAllClasses(t *testing.T) {
	for _, class := range gridClasses {
		for name, mk := range factories() {
			t.Run(fmt.Sprintf("%s/%s", name, class.Code()), func(t *testing.T) {
				out := gridCell(t, name, class)
				if out.Err != nil {
					t.Fatal(out.Err)
				}
				if out.Skipped {
					if mk().Supports(class, core.Small) == nil {
						t.Fatal("supported cell was skipped")
					}
					return
				}
				seen := map[int64]bool{}
				for _, op := range out.CrashOps {
					seen[op] = true
				}
				if len(seen) < 3 || len(seen) != len(out.CrashOps) {
					t.Fatalf("crash points not distinct: %v", out.CrashOps)
				}
				restarts := 0
				for _, n := range out.Restarted {
					restarts += n
				}
				if restarts != len(out.CrashOps) {
					t.Fatalf("%d restarts for %d crash points", restarts, len(out.CrashOps))
				}
				if out.Crashed[0] == 0 {
					t.Fatalf("outcome = %+v: no crash inside the load", out)
				}
				if out.Queries == 0 {
					t.Fatal("no query results were compared")
				}
				if class.SingleDocument() && out.Restarted[0] != len(out.CrashOps) {
					t.Fatalf("outcome = %+v: a single-document cell ran updates", out)
				}
			})
		}
	}
}

// TestUpdateCellsAllEngines is the acceptance criterion for crash-safe
// updates: on every engine x multi-document class, each update op is
// crashed inside its apply (and rolled back) and, at another point,
// acknowledged (and replayed by the restart). Across the grid both
// outcomes must occur, or the crash points are not landing on both sides
// of the acknowledgment.
func TestUpdateCellsAllEngines(t *testing.T) {
	var committed, rolledBack int
	for _, class := range []core.Class{core.DCMD, core.TCMD} {
		for name := range factories() {
			for _, op := range workload.UpdateOps {
				t.Run(fmt.Sprintf("%s/%s/%s", name, class.Code(), op), func(t *testing.T) {
					out := gridCell(t, name, class)
					if out.Err != nil || out.Skipped {
						t.Fatalf("outcome = %+v", out)
					}
					if out.Crashed[op] == 0 || out.Restarted[op] == 0 {
						t.Fatalf("outcome = %+v: %s was not both crashed inside its apply and committed", out, op)
					}
					committed += out.Restarted[op]
					rolledBack += out.Crashed[op]
				})
			}
		}
	}
	if committed == 0 || rolledBack == 0 {
		t.Fatalf("grid never exercised both recovery outcomes: committed=%d rolledBack=%d",
			committed, rolledBack)
	}
}

// lossyReplay is a real engine whose restart loses an acknowledged
// update: it drops the first record replayed to it, an Apply with no
// durable step (a served update carries its journal append as that step).
type lossyReplay struct {
	core.Engine
	dropped bool
}

func (e *lossyReplay) Pager() *pager.Pager { return e.Engine.(Faultable).Pager() }

func (e *lossyReplay) Apply(ctx context.Context, rec updatelog.Record, durable func() error) error {
	if durable == nil && !e.dropped {
		e.dropped = true
		return nil
	}
	return updatelog.Apply(ctx, e.Engine, rec, durable)
}

// TestCellCatchesALostUpdate: on every engine x multi-document class, a
// restart that loses an acknowledged update fails the cell at the first
// restart that has one to lose, after the load's restarts passed; the
// same cell passes without the loss.
func TestCellCatchesALostUpdate(t *testing.T) {
	for _, class := range []core.Class{core.DCMD, core.TCMD} {
		for name, mk := range factories() {
			t.Run(fmt.Sprintf("%s/%s", name, class.Code()), func(t *testing.T) {
				if green := gridCell(t, name, class); green.Err != nil {
					t.Fatal(green.Err)
				}
				red := RunCell(func() core.Engine { return &lossyReplay{Engine: mk()} }, gridDBs[class], 3)
				if red.Err == nil || !strings.Contains(red.Err.Error(), "restart with 1 acknowledged update(s)") {
					t.Fatalf("lost update not caught: %+v", red)
				}
				if red.Restarted[0] == 0 || red.Restarted[1] != 0 {
					t.Fatalf("outcome = %+v, want the load's restarts passed and the first committed one failed", red)
				}
			})
		}
	}
}

// TestDeterministicOutcome: the same cell must reproduce the identical
// chaos run — crash points, restarts and answers.
func TestDeterministicOutcome(t *testing.T) {
	db, err := testGen.Generate(core.DCMD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() core.Engine { return native.New(64) }
	a := RunCell(mk, db, 3)
	b := RunCell(mk, db, 3)
	if a.Err != nil || b.Err != nil {
		t.Fatalf("errs: %v / %v", a.Err, b.Err)
	}
	as := fmt.Sprintf("%+v", a)
	if bs := fmt.Sprintf("%+v", b); as != bs {
		t.Fatalf("same cell diverged:\n%s\n%s", as, bs)
	}
}

// TestUpdateCellDeterministic: the same cell reproduces the identical
// update crash points of a multi-document cell, and the run does crash
// inside the updates.
func TestUpdateCellDeterministic(t *testing.T) {
	db, err := testGen.Generate(core.DCMD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() core.Engine { return native.New(64) }
	a := RunCell(mk, db, 2)
	b := RunCell(mk, db, 2)
	if a.Err != nil || b.Err != nil {
		t.Fatalf("errs: %v / %v", a.Err, b.Err)
	}
	as, bs := fmt.Sprintf("%+v", a), fmt.Sprintf("%+v", b)
	if as != bs {
		t.Fatalf("same cell diverged:\n%s\n%s", as, bs)
	}
	for op := 1; op < len(a.Crashed); op++ {
		if a.Crashed[op] == 0 {
			t.Fatalf("outcome = %+v: no crash inside U%d", a, op)
		}
	}
}

// TestUpdateCellSkipsSingleDocumentClasses: the update workload is not
// defined for SD classes; the cell crashes only the load, runs no update
// and passes.
func TestUpdateCellSkipsSingleDocumentClasses(t *testing.T) {
	db, err := testGen.Generate(core.TCSD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	out := RunCell(func() core.Engine { return native.New(64) }, db, 3)
	if out.Skipped || out.Err != nil {
		t.Fatalf("outcome = %+v, want a passing load-only cell", out)
	}
	for op := 1; op < len(out.Crashed); op++ {
		if out.Crashed[op] != 0 || out.Restarted[op] != 0 {
			t.Fatalf("outcome = %+v: a single-document cell ran U%d", out, op)
		}
	}
	if out.Crashed[0] == 0 || out.Restarted[0] != len(out.CrashOps) {
		t.Fatalf("outcome = %+v: want every crash point inside the load", out)
	}
}

// TestCellRefusesNoCrashPoints: a cell with no crash point per phase
// would pass having tested nothing, so it is an error.
func TestCellRefusesNoCrashPoints(t *testing.T) {
	db, err := testGen.Generate(core.TCSD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, -1} {
		out := RunCell(func() core.Engine { return native.New(64) }, db, n)
		if out.Err == nil || len(out.CrashOps) != 0 {
			t.Errorf("RunCell with %d crash points = %+v, want an error and no crash point run", n, out)
		}
	}
}

// TestSkipsUnsupportedCell: Xcolumn cannot host single-document classes;
// the harness must report a skip, not a failure.
func TestSkipsUnsupportedCell(t *testing.T) {
	db, err := testGen.Generate(core.TCSD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	out := RunCell(func() core.Engine { return rdbms.New(rdbms.Xcolumn, 64, 0) }, db, 3)
	if !out.Skipped || out.Err != nil {
		t.Fatalf("outcome = %+v, want skip", out)
	}
	if out.String() != "-" {
		t.Fatalf("String() = %q", out.String())
	}
}
