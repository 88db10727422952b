// Metrics report: the report view of `xbench bench`. Where the paper
// tables print one averaged number per cell, the metrics report runs each
// query cell N times cold and M times warm and prints p50/p95/p99
// together with the per-phase and per-layer breakdown the instrumented
// engines attribute to the run: pager I/O, buffer-pool hit rate, B+tree
// node visits and span phase times. Output is a grouped text table, JSON
// or CSV (both suitable for checking into results/).
package bench

import (
	"fmt"

	"xbench/internal/core"
	"xbench/internal/metrics"
)

// ReportPhases fixes the phase column order of the report (and the CSV
// header): the canonical query pipeline from parse to eval.
var ReportPhases = []string{
	metrics.PhaseParse,
	metrics.PhasePlan,
	metrics.PhaseIndexProbe,
	metrics.PhaseScan,
	metrics.PhaseMaterialize,
	metrics.PhaseEval,
}

// ReportQueries is the default query set of the metrics report: the five
// queries the paper tables measure (Tables 5-9).
var ReportQueries = []core.QueryID{core.Q5, core.Q12, core.Q17, core.Q8, core.Q14}

// Report is the full metrics report: the measurement configuration plus
// one CellReport per measured cell.
type Report struct {
	Repeat   int          `json:"repeat"`
	Warm     int          `json:"warm_runs"`
	IOCostUs int64        `json:"io_cost_us"`
	Cells    []CellReport `json:"cells"`
}

// BuildReport measures every cell of the grid (engine x class x size for
// each requested query; none selects ReportQueries) and returns the
// aggregate report.
func (r *Runner) BuildReport(queries []core.QueryID) Report {
	if len(queries) == 0 {
		queries = ReportQueries
	}
	rep := Report{Repeat: max(r.Repeat, 1), Warm: r.Warm, IOCostUs: r.IOCost.Microseconds()}
	for _, q := range queries {
		rep.Cells = append(rep.Cells, r.queryCells(q, true)...)
	}
	return rep
}

// MetricsReport builds and prints the report in the runner's Format.
func (r *Runner) MetricsReport(queries []core.QueryID) error {
	form, err := r.format("report", "table", "json", "csv")
	if err != nil {
		return err
	}
	rep := r.BuildReport(queries)
	r.errs = nil // cell errors are embedded in the report rows
	switch form {
	case "json":
		return r.printJSON(rep)
	case "csv":
		printReportCSV(r, rep)
	default:
		r.printReportTable(rep)
	}
	return nil
}

// reportCSVHeader is the fixed column set of the CSV report format.
const reportCSVHeader = "engine,class,size,query,runs,warm_runs," +
	"cold_p50_ms,cold_p95_ms,cold_p99_ms,cold_mean_ms,warm_p50_ms,warm_mean_ms," +
	"page_io,cache_hit_pct,btree_visits," +
	"parse_ms,plan_ms,index_probe_ms,scan_ms,materialize_ms,eval_ms"

func printReportCSV(r *Runner, rep Report) {
	fmt.Fprintln(r.Out, reportCSVHeader)
	for _, c := range rep.Cells {
		if c.Err != "" {
			fmt.Fprintf(r.Out, "# error: %s %s/%s %s: %s\n", c.Engine, c.Class, c.Size, c.Query, c.Err)
			continue
		}
		fmt.Fprintf(r.Out, "%s,%s,%s,%s,%d,%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.1f,%.1f,%.1f",
			c.Engine, c.Class, c.Size, c.Query, c.Runs, c.Warm,
			c.ColdP50Ms, c.ColdP95Ms, c.ColdP99Ms, c.ColdMeanMs, c.WarmP50Ms, c.WarmMeanMs,
			c.PageIO, c.CacheHitPct, c.BtreeVisits)
		for _, ph := range ReportPhases {
			fmt.Fprintf(r.Out, ",%.3f", c.PhasesMs[ph])
		}
		fmt.Fprintln(r.Out)
	}
}

func (r *Runner) printReportTable(rep Report) {
	fmt.Fprintf(r.Out, "Metrics Report: %d cold + %d warm run(s) per cell, IOCost %dµs/page\n",
		rep.Repeat, rep.Warm, rep.IOCostUs)
	fmt.Fprintln(r.Out, "(times are effective ms: wall-clock + PageIO x IOCost)")
	lastQuery := ""
	for _, c := range rep.Cells {
		if c.Query != lastQuery {
			lastQuery = c.Query
			fmt.Fprintf(r.Out, "\nQuery %s\n", c.Query)
			fmt.Fprintf(r.Out, "%-12s %-6s %-7s %9s %9s %9s %9s %8s %6s %8s\n",
				"engine", "class", "size", "p50", "p95", "p99", "warm p50",
				"pageIO", "hit%", "btree")
		}
		if c.Err != "" {
			fmt.Fprintf(r.Out, "%-12s %-6s %-7s error: %s\n", c.Engine, c.Class, c.Size, c.Err)
			continue
		}
		warm := "-"
		if c.Warm > 0 {
			warm = fmt.Sprintf("%.2f", c.WarmP50Ms)
		}
		fmt.Fprintf(r.Out, "%-12s %-6s %-7s %9.2f %9.2f %9.2f %9s %8.0f %6.1f %8.0f\n",
			c.Engine, c.Class, c.Size,
			c.ColdP50Ms, c.ColdP95Ms, c.ColdP99Ms, warm,
			c.PageIO, c.CacheHitPct, c.BtreeVisits)
		line := ""
		for _, ph := range ReportPhases {
			if v, ok := c.PhasesMs[ph]; ok {
				line += fmt.Sprintf(" %s %.2fms", ph, v)
			}
		}
		if line != "" {
			fmt.Fprintf(r.Out, "%-12s   phases:%s\n", "", line)
		}
	}
}
