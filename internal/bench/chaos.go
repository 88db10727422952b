package bench

import (
	"fmt"

	"xbench/internal/chaos"
	"xbench/internal/core"
	"xbench/internal/workload"
)

// crashColumn is one column of a chaos grid: its label, the class whose
// database its cells load, and the harness run that fills one cell.
type crashColumn struct {
	label string
	class core.Class
	run   func(newEngine func() core.Engine, db *core.Database) (cell fmt.Stringer, err error)
}

// ChaosGrid runs the chaos harness over every engine x class at the
// runner's first (smallest) size, printing one cell per combination:
// "-" for unsupported cells, "ok:<crashes>c<queries>q" for passing ones,
// "FAIL" (with a detail line below the table) otherwise. It returns an
// error if any cell failed, so callers can gate CI on it.
func (r *Runner) ChaosGrid(cfg chaos.Config) error {
	var columns []crashColumn
	for _, class := range columnClasses {
		run := func(newEngine func() core.Engine, db *core.Database) (fmt.Stringer, error) {
			out := chaos.RunCell(newEngine, db, cfg)
			return out, out.Err
		}
		columns = append(columns, crashColumn{class.Code(), class, run})
	}
	return r.crashGrid("crash/recovery", cfg, columns)
}

// UpdateChaosGrid runs the update chaos harness the same way over every
// engine x multi-document class (where a document is the natural update
// unit) x update op; a passing cell reads
// "ok:<crashes>c<committed>+<rolledback>".
func (r *Runner) UpdateChaosGrid(cfg chaos.Config) error {
	var columns []crashColumn
	for _, class := range []core.Class{core.DCMD, core.TCMD} {
		for _, op := range workload.UpdateOps {
			run := func(newEngine func() core.Engine, db *core.Database) (fmt.Stringer, error) {
				out := chaos.RunUpdateCell(newEngine, db, op, cfg)
				return out, out.Err
			}
			columns = append(columns, crashColumn{fmt.Sprintf("%s %s", class.Code(), op), class, run})
		}
	}
	return r.crashGrid("crash-during-update", cfg, columns)
}

// crashGrid prints one chaos grid: a row per engine, a cell per column,
// then a FAIL line per failed cell.
func (r *Runner) crashGrid(what string, cfg chaos.Config, columns []crashColumn) error {
	cfg = cfg.WithDefaults()
	size := r.Sizes[0]
	fmt.Fprintf(r.Out, "\nChaos: %s grid (size %s, seed %d, %d crash points)\n",
		what, size, cfg.Seed, cfg.CrashPoints)
	fmt.Fprintf(r.Out, "%-12s", "")
	for _, c := range columns {
		fmt.Fprintf(r.Out, " %-10s", c.label)
	}
	fmt.Fprintln(r.Out)

	var failures []string
	for _, name := range r.engineNames() {
		fmt.Fprintf(r.Out, "%-12s", name)
		for _, c := range columns {
			db, err := r.Database(c.class, size)
			var cell fmt.Stringer = chaos.Outcome{Err: err}
			if err == nil {
				cell, err = c.run(func() core.Engine { return r.newEngine(name) }, db)
			}
			fmt.Fprintf(r.Out, " %-10s", cell)
			if err != nil {
				failures = append(failures, fmt.Sprintf("%s/%s: %v", name, c.label, err))
			}
		}
		fmt.Fprintln(r.Out)
	}
	for _, f := range failures {
		fmt.Fprintf(r.Out, "FAIL %s\n", f)
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench: %s grid: %d cell(s) failed", what, len(failures))
	}
	return nil
}
