package bench

import (
	"fmt"

	"xbench/internal/core"
)

// IndexAblation reproduces the paper's unreported baseline: "We measure
// two times for each query: with no indexes (i.e., sequential scan) to
// form a baseline, and with indexes. We only report ... times with
// indexes." This table reports both, per engine and class, for one query
// at each of the runner's sizes. The no-index engines still carry the
// automatically created primary/foreign-key indexes of the relational
// mappings, exactly as in the paper's setup — only the "arbitrary" Table 3
// indexes are ablated.
func (r *Runner) IndexAblation(q core.QueryID) error {
	if _, err := r.format("ablation", "table"); err != nil {
		return err
	}
	indexed, scan := lookup(r.queryCells(q, true)), lookup(r.queryCells(q, false))
	for _, size := range r.Sizes {
		fmt.Fprintf(r.Out, "\nIndex ablation for %s at %s (ms: indexed / sequential scan)\n", q, size)
		fmt.Fprintf(r.Out, "%-12s", "")
		for _, c := range columnClasses {
			fmt.Fprintf(r.Out, " %-21s", c.String())
		}
		fmt.Fprintln(r.Out)
		for _, name := range r.engineNames() {
			fmt.Fprintf(r.Out, "%-12s", name)
			for _, class := range columnClasses {
				fmt.Fprintf(r.Out, " %-10s/%-10s",
					cellText(indexed(name, class, size)), cellText(scan(name, class, size)))
			}
			fmt.Fprintln(r.Out)
		}
	}
	r.FlushErrors()
	return nil
}
