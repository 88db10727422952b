// Updates report: the updates view of `xbench bench`. Runs the document
// update workload (U1 insert, U2 replace, U3 delete) Repeat times per op
// against every engine on a multi-document class through one
// workload.Updater per engine, and reports per-op p50/p95/p99 latency of
// the engine call and the metrics breakdown the instrumented engines
// attribute to it: pager I/O, MVCC captures, rows touched.
package bench

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"xbench/internal/core"
	"xbench/internal/metrics"
	"xbench/internal/workload"
)

// UpdateCellReport aggregates the runs of one engine x op cell.
type UpdateCellReport struct {
	Engine string `json:"engine"`
	Class  string `json:"class"`
	Size   string `json:"size"`
	Op     string `json:"op"`
	Runs   int    `json:"runs"`

	// Latency of the engine call alone.
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`

	// PageIO is the mean per-run pager I/O the metrics layer attributed
	// to the update; Writes the mean page writes within it. Both are nil
	// when the engine exposes no metrics registry (a served engine): not
	// measured, rather than zero.
	PageIO *float64 `json:"page_io,omitempty"`
	Writes *float64 `json:"page_writes,omitempty"`
	// Counters holds the remaining summed counter deltas across runs.
	Counters map[string]int64 `json:"counters,omitempty"`

	Err string `json:"error,omitempty"`
}

// UpdatesGrid measures every engine x update-op cell of a multi-document
// class (DC/MD or TC/MD) at the runner's first (smallest) size, Repeat
// runs per op, and returns the cells in grid order. Engines that do not
// support the class, or whose update path declines the documents, are
// skipped. An engine's row, Repeat inserts, replaces of the newest and
// deletes of the oldest, ends on the documents it began with, and its
// Updater's Finish checks every run and deletes what a failed cell left:
// a served engine, which outlives the grid, can be measured again.
func (r *Runner) UpdatesGrid(class core.Class) ([]UpdateCellReport, error) {
	ctx := context.Background()
	if class.SingleDocument() {
		return nil, fmt.Errorf("bench: update workload is defined for multi-document classes, not %s", class)
	}
	size := r.Sizes[0]
	db, err := r.Database(class, size)
	if err != nil {
		return nil, err
	}
	var cells []UpdateCellReport
	for _, name := range r.engineNames() {
		// Fresh engine per row: updates mutate the store, so the runner's
		// shared engine cache must not be poisoned for later query tables.
		e := r.newEngine(name)
		if e.Supports(class, size) != nil {
			continue
		}
		// A served engine (client.Client) refuses the load: it is
		// measured on the database its server holds.
		if _, _, err := workload.LoadAndIndex(ctx, e, db); err != nil && !errors.Is(err, core.ErrServed) {
			return cells, fmt.Errorf("bench: load %s: %w", name, err)
		}
		u, _ := workload.NewUpdater(class, 0, 1) // a multi-document class, checked above
		for _, op := range workload.UpdateOps {
			cell, ok := r.measureUpdateCell(ctx, e, name, class, size, op, u)
			if ok {
				cells = append(cells, cell)
			}
		}
		if err := u.Finish(ctx, e); err != nil {
			e.Close()
			return cells, fmt.Errorf("bench: %s: %w", name, err)
		}
		if err := e.Close(); err != nil {
			return cells, fmt.Errorf("bench: close %s: %w", name, err)
		}
	}
	return cells, nil
}

// measureUpdateCell runs one engine x op cell through u. The metrics
// delta of a run is taken around u.Apply, so it is the update's alone.
func (r *Runner) measureUpdateCell(ctx context.Context, e core.Engine, name string,
	class core.Class, size core.Size, op workload.UpdateOp, u *workload.Updater) (UpdateCellReport, bool) {
	runs := max(r.Repeat, 1)
	cell := UpdateCellReport{
		Engine: name,
		Class:  class.Code(),
		Size:   size.String(),
		Op:     op.String(),
		Runs:   runs,
	}
	hist := metrics.NewHistogram()
	counters := map[string]int64{}
	var pageIO, writes int64
	var reg *metrics.Registry // nil, and so empty snapshots, on a served engine
	if mp, ok := e.(workload.MetricsProvider); ok {
		reg = mp.Metrics()
	}
	for i := 0; i < runs; i++ {
		before := reg.Snapshot()
		did, d, err := u.Apply(ctx, e, op)
		delta := reg.Snapshot().Delta(before)
		switch {
		case errors.Is(err, core.ErrUnsupported) || errors.Is(err, core.ErrReadOnly):
			return cell, false
		case err != nil:
			cell.Err = err.Error()
			return cell, true
		case did != op:
			cell.Err = fmt.Sprintf("no live document to %s, issued %s", op, did)
			return cell, true
		}
		hist.Observe(d)
		pageIO += delta.PagerIO()
		writes += delta.Get("pager.write")
		addCounters(counters, delta)
	}
	n := float64(runs)
	cell.P50Ms = msOf(hist.P50())
	cell.P95Ms = msOf(hist.P95())
	cell.P99Ms = msOf(hist.P99())
	cell.MeanMs = msOf(hist.Mean())
	if reg != nil {
		pio, w := float64(pageIO)/n, float64(writes)/n
		cell.PageIO, cell.Writes = &pio, &w
	}
	cell.Counters = counters
	return cell, true
}

// UpdatesReport measures the update grid and prints it in the runner's
// Format. It returns an error if any cell failed, so CI can gate on it.
func (r *Runner) UpdatesReport(class core.Class) error {
	form, err := r.format("updates", "table", "json", "csv")
	if err != nil {
		return err
	}
	cells, err := r.UpdatesGrid(class)
	if err != nil {
		return err
	}
	switch form {
	case "json":
		if err := r.printJSON(cells); err != nil {
			return err
		}
	case "csv":
		printUpdatesCSV(r, cells)
	default:
		r.printUpdatesTable(cells)
	}
	var failed int
	for _, c := range cells {
		if c.Err != "" {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("bench: updates: %d cell(s) failed", failed)
	}
	return nil
}

func (r *Runner) printUpdatesTable(cells []UpdateCellReport) {
	if len(cells) == 0 {
		fmt.Fprintln(r.Out, "no update cells measured")
		return
	}
	fmt.Fprintf(r.Out, "Update workload: %s %s (ms of the engine call)\n", cells[0].Class, cells[0].Size)
	fmt.Fprintf(r.Out, "%-12s %-4s %9s %9s %9s %9s %5s %8s %8s\n",
		"engine", "op", "p50", "p95", "p99", "mean", "runs", "pageIO", "writes")
	for _, c := range cells {
		if c.Err != "" {
			fmt.Fprintf(r.Out, "%-12s %-4s error: %s\n", c.Engine, c.Op, c.Err)
			continue
		}
		fmt.Fprintf(r.Out, "%-12s %-4s %9.3f %9.3f %9.3f %9.3f %5d %8s %8s\n",
			c.Engine, c.Op, c.P50Ms, c.P95Ms, c.P99Ms, c.MeanMs, c.Runs,
			measured(c.PageIO, "%.0f"), measured(c.Writes, "%.0f"))
	}
	// Per-layer counter detail for the curious, one compact line per cell.
	for _, c := range cells {
		if c.Err != "" || len(c.Counters) == 0 {
			continue
		}
		names := make([]string, 0, len(c.Counters))
		for cn := range c.Counters {
			names = append(names, cn)
		}
		sort.Strings(names)
		line := ""
		for _, cn := range names {
			line += fmt.Sprintf(" %s=%d", cn, c.Counters[cn])
		}
		fmt.Fprintf(r.Out, "%-12s %-4s counters:%s\n", c.Engine, c.Op, line)
	}
}

const updatesCSVHeader = "engine,class,size,op,runs," +
	"p50_ms,p95_ms,p99_ms,mean_ms,page_io,page_writes"

func printUpdatesCSV(r *Runner, cells []UpdateCellReport) {
	fmt.Fprintln(r.Out, updatesCSVHeader)
	for _, c := range cells {
		if c.Err != "" {
			fmt.Fprintf(r.Out, "# error: %s %s/%s %s: %s\n", c.Engine, c.Class, c.Size, c.Op, c.Err)
			continue
		}
		fmt.Fprintf(r.Out, "%s,%s,%s,%s,%d,%.3f,%.3f,%.3f,%.3f,%s,%s\n",
			c.Engine, c.Class, c.Size, c.Op, c.Runs,
			c.P50Ms, c.P95Ms, c.P99Ms, c.MeanMs,
			measured(c.PageIO, "%.1f"), measured(c.Writes, "%.1f"))
	}
}

// measured formats a value the engine measured, and "-" for one it did
// not.
func measured(v *float64, format string) string {
	if v == nil {
		return "-"
	}
	return fmt.Sprintf(format, *v)
}
