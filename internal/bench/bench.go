// Package bench is the XBench benchmark harness: it generates the
// databases, loads every engine, runs the experiment grid and prints the
// tables of the paper — Table 4 (bulk loading) and Tables 5-9 (queries
// Q5, Q12, Q17, Q8, Q14) — in the same row/column layout, so measured
// numbers can be compared shape-for-shape with the published ones.
//
// One measurement feeds every view. Runner.cell runs a query cell the
// paper's way (cold runs, repeated and averaged, priced as wall clock
// plus page I/O) and returns a CellReport; the paper tables, the metrics
// report, the shape checks and the index ablation are printers over the
// cells it returned, so no printer ever calls an engine.
package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"xbench/internal/core"
	"xbench/internal/engines/native"
	"xbench/internal/engines/rdbms"
	"xbench/internal/gen"
	"xbench/internal/metrics"
	"xbench/internal/workload"
)

// engineTable is the one list of systems under test: the paper's row
// label (also the engine's Name), the extra spelling accepted for it, and
// its constructor. The public facade's New, NewEngine here and the CLI's
// --engine flag all resolve names through it.
var engineTable = []struct {
	label, alias string
	build        func(poolPages int) core.Engine
}{
	{"Xcolumn", "", func(pool int) core.Engine { return rdbms.New(rdbms.Xcolumn, pool, 0) }},
	{"Xcollection", "", func(pool int) core.Engine { return rdbms.New(rdbms.Xcollection, pool, 0) }},
	{"SQL Server", "", func(pool int) core.Engine { return rdbms.New(rdbms.SQLServer, pool, 0) }},
	{"X-Hive", "native", func(pool int) core.Engine { return native.New(pool) }},
}

// EngineNames lists the systems in the paper's row order.
var EngineNames = func() []string {
	var names []string
	for _, row := range engineTable {
		names = append(names, row.label)
	}
	return names
}()

// EngineByName constructs a fresh engine from any spelling of its name:
// the paper's row label or "native", with case, spaces, '-' and '_'
// ignored ("x-hive", "SQL Server", "sqlserver"). poolPages sizes the
// buffer pool; <= 0 selects the default.
func EngineByName(name string, poolPages int) (core.Engine, error) {
	norm := strings.NewReplacer("-", "", "_", "", " ", "")
	want := strings.ToLower(norm.Replace(name))
	for _, row := range engineTable {
		if want == strings.ToLower(norm.Replace(row.label)) || (row.alias != "" && want == row.alias) {
			return row.build(poolPages), nil
		}
	}
	return nil, fmt.Errorf("unknown engine %q (want x-hive or native, xcolumn, xcollection, sql-server)", name)
}

// NewEngine constructs a fresh default-sized engine by name; an unknown
// name is a programming error.
func NewEngine(name string) core.Engine {
	e, err := EngineByName(name, 0)
	if err != nil {
		panic("bench: " + err.Error())
	}
	return e
}

// TableQueries maps the paper's query tables to query ids.
var TableQueries = map[int]core.QueryID{
	5: core.Q5,  // ordered access
	6: core.Q12, // document construction
	7: core.Q17, // text search
	8: core.Q8,  // path expressions
	9: core.Q14, // missing elements
}

// Runner executes the experiment grid with caching: each database is
// generated once and each engine loaded once per (class, size, indexed).
type Runner struct {
	Cfg   gen.Config
	Sizes []core.Size
	Out   io.Writer
	// Repeat is the number of cold runs per query cell, and of measured
	// runs per update op (>= 1).
	Repeat int
	// Warm is the number of warm runs per cell after the cold runs (the
	// buffer pool keeps what the cold runs loaded); 0 disables. Only the
	// metrics report prints them.
	Warm int
	// IOCost is the simulated cost of one page read or write. The pager
	// counts I/O but performs memory copies, so reported times are
	// wall-clock plus PageIO x IOCost — standing in for the 2004-era disk
	// of the paper's testbed. Zero disables the model.
	IOCost time.Duration
	// Format selects the output form: "table" (the default, also ""),
	// "csv" or "json". Each view names the forms it has.
	Format string
	// EngineList overrides EngineNames (tests inject stub engines; the
	// CLI narrows the update grid to one served engine).
	EngineList []string
	// NewEngineFn overrides NewEngine as the engine factory.
	NewEngineFn func(name string) core.Engine

	dbs     map[dbKey]*core.Database
	engines map[engineKey]loadCell

	// csvHeader records whether the CSV header row has been emitted.
	csvHeader bool
	// errs collects query-cell failures so they can be reported after the
	// table instead of being silently collapsed to an "err" cell.
	errs []string
}

// engineNames returns the grid's engine rows.
func (r *Runner) engineNames() []string {
	if len(r.EngineList) > 0 {
		return r.EngineList
	}
	return EngineNames
}

// newEngine constructs a fresh engine through the configured factory.
func (r *Runner) newEngine(name string) core.Engine {
	if r.NewEngineFn != nil {
		return r.NewEngineFn(name)
	}
	return NewEngine(name)
}

// dbKey addresses one cached database, engineKey one cached engine.
type dbKey struct {
	class core.Class
	size  core.Size
}

type engineKey struct {
	name    string
	db      dbKey
	indexed bool
}

// loadCell is one load: the engine it produced (nil when the cell is
// blank — unsupported, or the load failed) and what the load cost.
type loadCell struct {
	e     core.Engine
	dur   time.Duration
	stats core.LoadStats
	err   error
}

// NewRunner returns a harness writing its tables to out.
func NewRunner(cfg gen.Config, sizes []core.Size, out io.Writer) *Runner {
	if len(sizes) == 0 {
		sizes = core.Sizes
	}
	return &Runner{
		Cfg:     cfg,
		Sizes:   sizes,
		Out:     out,
		Repeat:  1,
		IOCost:  100 * time.Microsecond,
		dbs:     map[dbKey]*core.Database{},
		engines: map[engineKey]loadCell{},
	}
}

// format resolves Format against the forms a view can print.
func (r *Runner) format(view string, forms ...string) (string, error) {
	f := r.Format
	if f == "" {
		f = "table"
	}
	for _, ok := range forms {
		if f == ok {
			return f, nil
		}
	}
	return "", fmt.Errorf("bench: the %s view has no %q format (want %s)", view, r.Format, strings.Join(forms, ", "))
}

// Database generates (or returns the cached) database for a class/size.
func (r *Runner) Database(class core.Class, size core.Size) (*core.Database, error) {
	k := dbKey{class, size}
	if db, ok := r.dbs[k]; ok {
		return db, nil
	}
	db, err := r.Cfg.Generate(class, size)
	if err != nil {
		return nil, err
	}
	r.dbs[k] = db
	return db, nil
}

// engine loads (or returns the cached) engine instance for a cell, with
// or without the Table 3 indexes, and the load measurement Table 4
// prints. An unindexed engine still carries the automatically created
// primary/foreign-key indexes of the relational mappings, exactly as in
// the paper's no-index baseline.
func (r *Runner) engine(name string, class core.Class, size core.Size, indexed bool) loadCell {
	k := engineKey{name, dbKey{class, size}, indexed}
	if lc, ok := r.engines[k]; ok {
		return lc
	}
	e := r.newEngine(name)
	var lc loadCell
	if lc.err = e.Supports(class, size); lc.err == nil {
		var db *core.Database
		if db, lc.err = r.Database(class, size); lc.err == nil {
			// Index creation stays outside the load time, matching the
			// paper's setup where the arbitrary indexes are created
			// separately after bulk loading.
			start := time.Now()
			lc.stats, lc.err = e.Load(context.Background(), db)
			lc.dur = time.Since(start)
			if lc.err == nil && indexed {
				lc.err = e.BuildIndexes(workload.Indexes(class))
			}
		}
	}
	if lc.err == nil {
		lc.e = e
	}
	r.engines[k] = lc
	return lc
}

// CellReport is one measured grid cell: the cold and warm runs of one
// query on one engine, class and size. All millisecond figures are
// effective times: wall-clock plus PageIO x IOCost. ColdMeanMs is the
// number the paper's tables print. A Table 4 cell is the bulk load
// instead: Query is empty and ColdMeanMs the effective load time.
type CellReport struct {
	Engine string `json:"engine"`
	Class  string `json:"class"`
	Size   string `json:"size"`
	Query  string `json:"query"`
	Runs   int    `json:"runs"`
	Warm   int    `json:"warm_runs"`

	ColdP50Ms  float64 `json:"cold_p50_ms"`
	ColdP95Ms  float64 `json:"cold_p95_ms"`
	ColdP99Ms  float64 `json:"cold_p99_ms"`
	ColdMeanMs float64 `json:"cold_mean_ms"`
	WarmP50Ms  float64 `json:"warm_p50_ms"`
	WarmMeanMs float64 `json:"warm_mean_ms"`

	// PageIO is the mean per-run page I/O reported by the engine result;
	// AttributedIO is the mean per-run I/O the pager counters attributed.
	// AttributionPct is their ratio — the acceptance gate asks >= 90%.
	PageIO         float64 `json:"page_io"`
	AttributedIO   float64 `json:"attributed_io"`
	AttributionPct float64 `json:"attribution_pct"`

	// CacheHitPct is the buffer-pool hit rate across the cold runs.
	CacheHitPct float64 `json:"cache_hit_pct"`
	// BtreeVisits is the mean per-run B+tree node visit count.
	BtreeVisits float64 `json:"btree_visits"`

	// PhasesMs holds the mean per-run time attributed to each span phase.
	PhasesMs map[string]float64 `json:"phases_ms,omitempty"`
	// Counters holds the remaining summed counter deltas across cold runs
	// (pager.hit, pager.evict, relational.scan.row, ...).
	Counters map[string]int64 `json:"counters,omitempty"`

	Err string `json:"error,omitempty"`
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// effective converts a measurement to the effective time the tables
// report: wall-clock plus simulated disk time.
func (r *Runner) effective(elapsed time.Duration, pageIO int64) time.Duration {
	return elapsed + time.Duration(pageIO)*r.IOCost
}

// addCounters folds one run's counter deltas into a cell's totals:
// counters sum, gauges keep their maximum.
func addCounters(total map[string]int64, b metrics.Breakdown) {
	for _, cn := range b.CounterNames() {
		if v := b.Get(cn); !metrics.IsGauge(cn) {
			total[cn] += v
		} else if v > total[cn] {
			total[cn] = v
		}
	}
}

// cell measures one query cell: Repeat cold runs, then Warm warm runs, on
// the engine loaded for (name, class, size) with or without the Table 3
// indexes. It is the package's only RunCold/RunWarm site, so every view
// measures — and fails — the same way: ok is false for the paper's blank
// cells (the engine cannot host the class at the size, its load failed,
// or the class does not define the query); a run that errors ends the
// cell with Err set and the error noted for FlushErrors.
func (r *Runner) cell(name string, class core.Class, size core.Size, q core.QueryID, indexed bool) (CellReport, bool) {
	if !workload.Defined(class, q) {
		return CellReport{}, false
	}
	e := r.engine(name, class, size, indexed).e
	if e == nil {
		return CellReport{}, false
	}
	ctx := context.Background()
	n := max(r.Repeat, 1)
	cr := CellReport{
		Engine: name,
		Class:  class.Code(),
		Size:   size.String(),
		Query:  q.String(),
		Runs:   n,
		Warm:   r.Warm,
	}
	failed := func(err error) (CellReport, bool) {
		cr.Err = err.Error()
		r.errs = append(r.errs, fmt.Sprintf("%s %s/%s %s: %v", name, class.Code(), size, q, err))
		return cr, true
	}
	coldHist := metrics.NewHistogram()
	warmHist := metrics.NewHistogram()
	counters := map[string]int64{}
	phases := map[string]time.Duration{}
	var pageIO, attributed int64
	for i := 0; i < n; i++ {
		m := workload.RunCold(ctx, e, class, q)
		if m.Err != nil {
			return failed(m.Err)
		}
		coldHist.Observe(r.effective(m.Elapsed, m.Result.PageIO))
		pageIO += m.Result.PageIO
		attributed += m.Breakdown.PagerIO()
		addCounters(counters, m.Breakdown)
		for ph, d := range m.Breakdown.Phases {
			phases[ph] += d
		}
	}
	for i := 0; i < r.Warm; i++ {
		m := workload.RunWarm(ctx, e, class, q)
		if m.Err != nil {
			return failed(m.Err)
		}
		warmHist.Observe(r.effective(m.Elapsed, m.Result.PageIO))
	}
	cr.ColdP50Ms = msOf(coldHist.P50())
	cr.ColdP95Ms = msOf(coldHist.P95())
	cr.ColdP99Ms = msOf(coldHist.P99())
	cr.ColdMeanMs = msOf(coldHist.Mean())
	cr.WarmP50Ms = msOf(warmHist.P50())
	cr.WarmMeanMs = msOf(warmHist.Mean())
	cr.PageIO = float64(pageIO) / float64(n)
	cr.AttributedIO = float64(attributed) / float64(n)
	if pageIO > 0 {
		cr.AttributionPct = 100 * float64(attributed) / float64(pageIO)
	} else if attributed == 0 {
		cr.AttributionPct = 100
	}
	hits, reads := counters["pager.hit"], counters["pager.read"]
	if hits+reads > 0 {
		cr.CacheHitPct = 100 * float64(hits) / float64(hits+reads)
	}
	cr.BtreeVisits = float64(counters["btree.visit"]) / float64(n)
	cr.PhasesMs = map[string]float64{}
	for ph, d := range phases {
		cr.PhasesMs[ph] = msOf(d) / float64(n)
	}
	cr.Counters = counters
	return cr, true
}

// loadedCell is Table 4's cell: the bulk load of the indexed engine.
func (r *Runner) loadedCell(name string, class core.Class, size core.Size) (CellReport, bool) {
	lc := r.engine(name, class, size, true)
	if lc.e == nil {
		return CellReport{}, false
	}
	return CellReport{
		Engine:     name,
		Class:      class.Code(),
		Size:       size.String(),
		Runs:       1,
		ColdMeanMs: msOf(r.effective(lc.dur, lc.stats.PageIO)),
		PageIO:     float64(lc.stats.PageIO),
	}, true
}

// queryCells measures q over the whole grid on the indexed (or
// unindexed) engines.
func (r *Runner) queryCells(q core.QueryID, indexed bool) []CellReport {
	return r.grid(func(name string, class core.Class, size core.Size) (CellReport, bool) {
		return r.cell(name, class, size, q, indexed)
	})
}

// Measure runs one query cell — Repeat cold runs on the loaded, indexed
// engine — and returns it, with the load or query error a degraded cell
// hides (used by the testing.B benchmarks).
func (r *Runner) Measure(engineName string, class core.Class, size core.Size, q core.QueryID) (CellReport, error) {
	if err := r.engine(engineName, class, size, true).err; err != nil {
		return CellReport{}, err
	}
	cr, ok := r.cell(engineName, class, size, q, true)
	switch {
	case !ok:
		return cr, fmt.Errorf("bench: %s %s: %w", class, q, core.ErrNoQuery)
	case cr.Err != "":
		return cr, errors.New(cr.Err)
	}
	return cr, nil
}

// columnClasses is the paper's column order.
var columnClasses = []core.Class{core.DCSD, core.DCMD, core.TCSD, core.TCMD}

// grid measures every position of the engine x class x size grid in the
// paper's row/column order and returns the cells that exist.
func (r *Runner) grid(measure func(name string, class core.Class, size core.Size) (CellReport, bool)) []CellReport {
	var cells []CellReport
	for _, name := range r.engineNames() {
		for _, class := range columnClasses {
			for _, size := range r.Sizes {
				if c, ok := measure(name, class, size); ok {
					cells = append(cells, c)
				}
			}
		}
	}
	return cells
}

// lookup indexes measured cells by grid position; a blank reads nil.
func lookup(cells []CellReport) func(name string, class core.Class, size core.Size) *CellReport {
	at := map[[3]string]*CellReport{}
	for i := range cells {
		c := &cells[i]
		at[[3]string{c.Engine, c.Class, c.Size}] = c
	}
	return func(name string, class core.Class, size core.Size) *CellReport {
		return at[[3]string{name, class.Code(), size.String()}]
	}
}

// cellText renders a query cell the way the paper's tables print it: "-"
// for a blank, "err" for a failed cell, else the mean effective time.
// Sub-10 ms cells print with decimals so small databases remain
// comparable.
func cellText(c *CellReport) string {
	switch {
	case c == nil:
		return "-"
	case c.Err != "":
		return "err"
	case c.ColdMeanMs >= 10:
		return fmt.Sprintf("%.0f", c.ColdMeanMs)
	}
	return fmt.Sprintf("%.2f", c.ColdMeanMs)
}

// printPaperTable prints cells in the paper's layout: one row per engine,
// one column per class x size.
func (r *Runner) printPaperTable(title string, cells []CellReport, text func(*CellReport) string) {
	at := lookup(cells)
	fmt.Fprintf(r.Out, "\n%s\n", title)
	fmt.Fprintf(r.Out, "%-12s", "")
	for _, c := range columnClasses {
		width := 10 * len(r.Sizes)
		fmt.Fprintf(r.Out, " %-*s", width, c.String())
	}
	fmt.Fprintln(r.Out)
	fmt.Fprintf(r.Out, "%-12s", "")
	for range columnClasses {
		for _, s := range r.Sizes {
			fmt.Fprintf(r.Out, " %-9s", s)
		}
	}
	fmt.Fprintln(r.Out)
	for _, name := range r.engineNames() {
		fmt.Fprintf(r.Out, "%-12s", name)
		for _, class := range columnClasses {
			for _, size := range r.Sizes {
				fmt.Fprintf(r.Out, " %-9s", text(at(name, class, size)))
			}
		}
		fmt.Fprintln(r.Out)
	}
}

// printTableCSV prints cells as machine-readable rows, one per grid
// position, preceded by the header row on first use.
func (r *Runner) printTableCSV(table int, cells []CellReport, text func(*CellReport) string) {
	at := lookup(cells)
	if !r.csvHeader {
		fmt.Fprintln(r.Out, "table,engine,class,size,value_ms")
		r.csvHeader = true
	}
	for _, name := range r.engineNames() {
		for _, class := range columnClasses {
			for _, size := range r.Sizes {
				fmt.Fprintf(r.Out, "%d,%s,%s,%s,%s\n", table, name, class.Code(), size, text(at(name, class, size)))
			}
		}
	}
}

// FlushErrors prints every failure recorded since the last flush. Cells
// that failed print as "err" in the table; this is where the underlying
// errors surface. In CSV mode the lines are '#'-prefixed comments so the
// data rows stay machine-readable.
func (r *Runner) FlushErrors() {
	if len(r.errs) == 0 {
		return
	}
	prefix := ""
	if r.Format == "csv" {
		prefix = "# "
	}
	fmt.Fprintf(r.Out, "\n%s%d cell(s) failed:\n", prefix, len(r.errs))
	for _, e := range r.errs {
		fmt.Fprintf(r.Out, "%s  error: %s\n", prefix, e)
	}
	r.errs = nil
}

// printJSON writes v as indented JSON.
func (r *Runner) printJSON(v any) error {
	enc := json.NewEncoder(r.Out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// tableCells measures one of Tables 4-9.
func (r *Runner) tableCells(table int) ([]CellReport, error) {
	if table == 4 {
		return r.grid(r.loadedCell), nil
	}
	q, ok := TableQueries[table]
	if !ok {
		return nil, fmt.Errorf("bench: no table %d (the paper has Tables 1-9)", table)
	}
	return r.queryCells(q, true), nil
}

// staticTables are Tables 1-3, which measure nothing.
var staticTables = []func(io.Writer){PrintTable1, PrintTable2, PrintTable3}

// Table prints one of the paper's tables: 1-3 are static, 4 is the bulk
// loading experiment, 5-9 one query each. The CSV form has rows
// table,engine,class,size,value_ms and skips the static tables.
func (r *Runner) Table(table int) error {
	form, err := r.format("tables", "table", "csv")
	if err != nil {
		return err
	}
	if table >= 1 && table <= len(staticTables) {
		if form == "table" {
			staticTables[table-1](r.Out)
		}
		return nil
	}
	cells, err := r.tableCells(table)
	if err != nil {
		return err
	}
	// Table 4 prints whole milliseconds in the paper's layout (the paper:
	// whole seconds) and keeps the fraction in the CSV.
	title := "Table 4. Bulk Loading Time (in milliseconds; paper reports seconds)"
	text := func(c *CellReport) string {
		switch {
		case c == nil:
			return "-"
		case form == "csv":
			return fmt.Sprintf("%.2f", c.ColdMeanMs)
		}
		return fmt.Sprintf("%d", int64(c.ColdMeanMs))
	}
	if table != 4 {
		title = fmt.Sprintf("Table %d. Query %s Execution Time (in Milliseconds)", table, TableQueries[table])
		text = cellText
	}
	if form == "csv" {
		r.printTableCSV(table, cells, text)
	} else {
		r.printPaperTable(title, cells, text)
	}
	r.FlushErrors()
	return nil
}

// AllTables prints Tables 1-9 (1-3 are static, 4-9 measured).
func (r *Runner) AllTables() error {
	for t := 1; t <= 9; t++ {
		if err := r.Table(t); err != nil {
			return err
		}
	}
	return nil
}

// PrintTable1 reproduces the classification matrix (paper Table 1).
func PrintTable1(w io.Writer) {
	fmt.Fprintln(w, "\nTable 1. Classification & Sample Applications")
	fmt.Fprintf(w, "%-4s %-28s %-30s\n", "", "SD", "MD")
	fmt.Fprintf(w, "%-4s %-28s %-30s\n", "TC", "Online dictionaries", "News corpus, Digital libraries")
	fmt.Fprintf(w, "%-4s %-28s %-30s\n", "DC", "E-commerce catalogs", "Transactional data")
}

// PrintTable2 reproduces the analyzed-corpora provenance (paper Table 2).
func PrintTable2(w io.Writer) {
	fmt.Fprintln(w, "\nTable 2. Analyzed TC Class Data")
	fmt.Fprintf(w, "%-10s %-10s %-12s %-14s\n", "Sources", "No. files", "File size", "Data size (MB)")
	for _, c := range gen.AnalyzedCorpora {
		fmt.Fprintf(w, "%-10s %-10d %-12s %-14d\n", c.Name, c.Files, c.FileSize, c.DataMB)
	}
}

// PrintTable3 reproduces the index definitions (paper Table 3).
func PrintTable3(w io.Writer) {
	fmt.Fprintln(w, "\nTable 3. Indexes for Each Class")
	fmt.Fprintf(w, "%-8s %s\n", "Classes", "Indexes")
	for _, class := range []core.Class{core.TCSD, core.TCMD, core.DCSD, core.DCMD} {
		var targets []string
		for _, s := range workload.Indexes(class) {
			targets = append(targets, s.Target)
		}
		fmt.Fprintf(w, "%-8s %s\n", class, strings.Join(targets, ", "))
	}
}
