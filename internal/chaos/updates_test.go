package chaos

import (
	"fmt"
	"testing"

	"xbench/internal/core"
	"xbench/internal/engines/native"
	"xbench/internal/workload"
)

// TestUpdateCellsAllEngines is the acceptance criterion for crash-safe
// updates: every engine x multi-document class x update op restarts from
// every crash point to exactly the pre- or post-update state — never a
// torn one. Across the grid both outcomes (committed and rolled back)
// must occur somewhere, or the crash points are not actually landing on
// both sides of the acknowledgment.
func TestUpdateCellsAllEngines(t *testing.T) {
	var committed, rolledBack int
	for _, class := range []core.Class{core.DCMD, core.TCMD} {
		db, err := testGen.Generate(class, core.Small)
		if err != nil {
			t.Fatal(err)
		}
		for name, mk := range factories() {
			for _, op := range workload.UpdateOps {
				t.Run(fmt.Sprintf("%s/%s/%s", name, class.Code(), op), func(t *testing.T) {
					out := RunUpdateCell(mk, db, op, Config{Seed: 41, CrashPoints: 2})
					if out.Err != nil {
						t.Fatal(out.Err)
					}
					if out.Skipped {
						t.Fatal("supported update cell was skipped")
					}
					if out.Recoveries < len(out.CrashOps) {
						t.Fatalf("recoveries=%d for %d crash points", out.Recoveries, len(out.CrashOps))
					}
					if out.Committed+out.RolledBack != len(out.CrashOps) {
						t.Fatalf("outcome = %+v: %d crash points but %d+%d resolved states",
							out, len(out.CrashOps), out.Committed, out.RolledBack)
					}
					committed += out.Committed
					rolledBack += out.RolledBack
				})
			}
		}
	}
	if committed == 0 || rolledBack == 0 {
		t.Fatalf("grid never exercised both recovery outcomes: committed=%d rolledBack=%d",
			committed, rolledBack)
	}
}

// TestUpdateCellDeterministic: the same seed reproduces the identical
// update chaos run.
func TestUpdateCellDeterministic(t *testing.T) {
	db, err := testGen.Generate(core.DCMD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() core.Engine { return native.New(64) }
	a := RunUpdateCell(mk, db, workload.U2, Config{Seed: 5, CrashPoints: 2})
	b := RunUpdateCell(mk, db, workload.U2, Config{Seed: 5, CrashPoints: 2})
	if a.Err != nil || b.Err != nil {
		t.Fatalf("errs: %v / %v", a.Err, b.Err)
	}
	as, bs := fmt.Sprintf("%+v", a), fmt.Sprintf("%+v", b)
	if as != bs {
		t.Fatalf("same seed diverged:\n%s\n%s", as, bs)
	}
}

// TestUpdateCellSkipsSingleDocumentClasses: the update workload is not
// defined for SD classes; the cell must skip, not fail.
func TestUpdateCellSkipsSingleDocumentClasses(t *testing.T) {
	db, err := testGen.Generate(core.TCSD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	out := RunUpdateCell(func() core.Engine { return native.New(64) }, db, workload.U1, Config{Seed: 1})
	if !out.Skipped || out.Err != nil {
		t.Fatalf("outcome = %+v, want skip", out)
	}
	if out.String() != "-" {
		t.Fatalf("String() = %q", out.String())
	}
}
