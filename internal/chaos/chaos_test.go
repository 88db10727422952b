package chaos

import (
	"fmt"
	"testing"

	"xbench/internal/core"
	"xbench/internal/engines/native"
	"xbench/internal/engines/xcollection"
	"xbench/internal/engines/xcolumn"
	"xbench/internal/gen"
)

var testGen = gen.Config{DictEntries: 40, Articles: 6, Items: 20, Orders: 40}

func factories() map[string]func() core.Engine {
	return map[string]func() core.Engine{
		"X-Hive":      func() core.Engine { return native.New(64) },
		"Xcolumn":     func() core.Engine { return xcolumn.New(64) },
		"Xcollection": func() core.Engine { return xcollection.New(xcollection.DB2, 64, 0) },
		"SQL Server":  func() core.Engine { return xcollection.New(xcollection.SQLServer, 64, 0) },
	}
}

// TestAllEnginesAllClasses is the acceptance criterion: every engine x
// class cell survives >= 3 distinct crash points, restarts, and answers
// every query exactly like a fault-free run.
func TestAllEnginesAllClasses(t *testing.T) {
	for _, class := range []core.Class{core.TCSD, core.TCMD, core.DCSD, core.DCMD} {
		db, err := testGen.Generate(class, core.Small)
		if err != nil {
			t.Fatal(err)
		}
		for name, mk := range factories() {
			t.Run(fmt.Sprintf("%s/%s", name, class.Code()), func(t *testing.T) {
				out := RunCell(mk, db, Config{Seed: 99})
				if out.Err != nil {
					t.Fatal(out.Err)
				}
				if out.Skipped {
					probe := mk()
					if probe.Supports(class, core.Small) == nil {
						t.Fatal("supported cell was skipped")
					}
					return
				}
				if len(out.CrashOps) < 3 {
					t.Fatalf("only %d crash points exercised", len(out.CrashOps))
				}
				seen := map[int64]bool{}
				for _, op := range out.CrashOps {
					seen[op] = true
				}
				if len(seen) < 3 {
					t.Fatalf("crash points not distinct: %v", out.CrashOps)
				}
				if out.Recoveries < len(out.CrashOps) {
					t.Fatalf("recoveries=%d for %d crash points", out.Recoveries, len(out.CrashOps))
				}
				if out.Queries == 0 {
					t.Fatal("no query results were compared")
				}
			})
		}
	}
}

// TestDeterministicOutcome: the same seed must reproduce the identical
// chaos run — crash points, fault effects and all.
func TestDeterministicOutcome(t *testing.T) {
	db, err := testGen.Generate(core.DCMD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() core.Engine { return native.New(64) }
	a := RunCell(mk, db, Config{Seed: 7})
	b := RunCell(mk, db, Config{Seed: 7})
	if a.Err != nil || b.Err != nil {
		t.Fatalf("errs: %v / %v", a.Err, b.Err)
	}
	as := fmt.Sprintf("%+v", a)
	if bs := fmt.Sprintf("%+v", b); as != bs {
		t.Fatalf("same seed diverged:\n%s\n%s", as, bs)
	}
	if c := RunCell(mk, db, Config{Seed: 8}); c.Err != nil {
		t.Fatal(c.Err)
	}
}

// TestSkipsUnsupportedCell: Xcolumn cannot host single-document classes;
// the harness must report a skip, not a failure.
func TestSkipsUnsupportedCell(t *testing.T) {
	db, err := testGen.Generate(core.TCSD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	out := RunCell(func() core.Engine { return xcolumn.New(64) }, db, Config{Seed: 1})
	if !out.Skipped || out.Err != nil {
		t.Fatalf("outcome = %+v, want skip", out)
	}
	if out.String() != "-" {
		t.Fatalf("String() = %q", out.String())
	}
}
