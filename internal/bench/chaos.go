package bench

import (
	"fmt"

	"xbench/internal/chaos"
	"xbench/internal/core"
)

// ChaosGrid runs the chaos harness over every engine x class at the
// runner's first (smallest) size, printing one cell per combination:
// "-" for unsupported cells, "ok:<crashes>c<queries>q" for passing ones,
// "FAIL" (with a detail line below the table) otherwise. It returns an
// error if any cell failed, so callers can gate CI on it. crashPoints is
// the number of crash points per phase of a cell (chaos.RunCell); below 1
// the grid is refused before any database is generated.
func (r *Runner) ChaosGrid(crashPoints int) error {
	if crashPoints < 1 {
		return fmt.Errorf("bench: chaos grid: %d crash points per phase, want at least 1", crashPoints)
	}
	size := r.Sizes[0]
	fmt.Fprintf(r.Out, "\nChaos: crash/recovery grid (size %s, %d crash points per phase)\n",
		size, crashPoints)
	fmt.Fprintf(r.Out, "%-12s", "")
	for _, class := range columnClasses {
		fmt.Fprintf(r.Out, " %-10s", class.Code())
	}
	fmt.Fprintln(r.Out)

	var failures []string
	for _, name := range r.engineNames() {
		fmt.Fprintf(r.Out, "%-12s", name)
		for _, class := range columnClasses {
			db, err := r.Database(class, size)
			out := chaos.Outcome{Err: err}
			if err == nil {
				out = chaos.RunCell(func() core.Engine { return r.newEngine(name) }, db, crashPoints)
			}
			fmt.Fprintf(r.Out, " %-10s", out)
			if out.Err != nil {
				failures = append(failures, fmt.Sprintf("%s/%s: %v", name, class.Code(), out.Err))
			}
		}
		fmt.Fprintln(r.Out)
	}
	for _, f := range failures {
		fmt.Fprintf(r.Out, "FAIL %s\n", f)
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench: chaos grid: %d cell(s) failed", len(failures))
	}
	return nil
}
