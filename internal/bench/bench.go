// Package bench is the XBench benchmark harness: it generates the
// databases, loads every engine, runs the experiment grid and prints the
// tables of the paper — Table 4 (bulk loading) and Tables 5-9 (queries
// Q5, Q12, Q17, Q8, Q14) — in the same row/column layout, so measured
// numbers can be compared shape-for-shape with the published ones.
package bench

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"xbench/internal/core"
	"xbench/internal/engines/native"
	"xbench/internal/engines/xcollection"
	"xbench/internal/engines/xcolumn"
	"xbench/internal/gen"
	"xbench/internal/workload"
)

// EngineNames lists the systems in the paper's row order.
var EngineNames = []string{"Xcolumn", "Xcollection", "SQL Server", "X-Hive"}

// NewEngine constructs a fresh engine by its paper row label.
func NewEngine(name string) core.Engine {
	switch name {
	case "Xcolumn":
		return xcolumn.New(0)
	case "Xcollection":
		return xcollection.New(xcollection.DB2, 0, 0)
	case "SQL Server":
		return xcollection.New(xcollection.SQLServer, 0, 0)
	case "X-Hive":
		return native.New(0)
	}
	panic("bench: unknown engine " + name)
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
// generated once and each engine loaded once per (class, size).
type Runner struct {
	Cfg   gen.Config
	Sizes []core.Size
	Out   io.Writer
	// Repeat is the number of cold runs to average per query cell (>= 1).
	Repeat int
	// IOCost is the simulated cost of one page read or write. The pager
	// counts I/O but performs memory copies, so reported times are
	// wall-clock plus PageIO x IOCost — standing in for the 2004-era disk
	// of the paper's testbed. Zero disables the model.
	IOCost time.Duration
	// CSV switches output to machine-readable rows
	// (table,engine,class,size,value_ms) instead of the paper's layout.
	CSV bool
	// EngineList overrides EngineNames (tests inject stub engines; the
	// chaos mode reuses the standard grid machinery).
	EngineList []string
	// NewEngineFn overrides NewEngine as the engine factory.
	NewEngineFn func(name string) core.Engine

	dbs     map[string]*core.Database
	engines map[string]core.Engine
	loads   map[string]loadCell

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

type loadCell struct {
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
		dbs:     map[string]*core.Database{},
		engines: map[string]core.Engine{},
		loads:   map[string]loadCell{},
	}
}

func key(parts ...string) string { return strings.Join(parts, "|") }

// Database generates (or returns the cached) database for a class/size.
func (r *Runner) Database(class core.Class, size core.Size) (*core.Database, error) {
	k := key(class.Code(), size.String())
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

// Engine loads (or returns the cached) engine instance for the cell,
// recording the load measurement for Table 4.
func (r *Runner) Engine(name string, class core.Class, size core.Size) (core.Engine, loadCell) {
	k := key(name, class.Code(), size.String())
	if e, ok := r.engines[k]; ok {
		return e, r.loads[k]
	}
	e := r.newEngine(name)
	cell := loadCell{}
	if err := e.Supports(class, size); err != nil {
		cell.err = err
		r.engines[k] = nil
		r.loads[k] = cell
		return nil, cell
	}
	db, err := r.Database(class, size)
	if err != nil {
		cell.err = err
		r.engines[k] = nil
		r.loads[k] = cell
		return nil, cell
	}
	st, dur, err := workload.LoadAndIndex(context.Background(), e, db)
	cell.stats, cell.dur, cell.err = st, dur, err
	if err != nil {
		r.engines[k] = nil
	} else {
		r.engines[k] = e
	}
	r.loads[k] = cell
	return r.engines[k], cell
}

// columnClasses is the paper's column order.
var columnClasses = []core.Class{core.DCSD, core.DCMD, core.TCSD, core.TCMD}

func (r *Runner) printHeader(title string) {
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
}

// Table4 runs and prints the bulk loading experiment.
func (r *Runner) Table4() error {
	if r.CSV {
		for _, name := range r.engineNames() {
			for _, class := range columnClasses {
				for _, size := range r.Sizes {
					_, cell := r.Engine(name, class, size)
					val := "-"
					if cell.err == nil {
						eff := cell.dur + time.Duration(cell.stats.PageIO)*r.IOCost
						val = fmt.Sprintf("%.2f", float64(eff.Microseconds())/1000)
					}
					r.csvRow(4, name, class, size, val)
				}
			}
		}
		return nil
	}
	r.printHeader("Table 4. Bulk Loading Time (in milliseconds; paper reports seconds)")
	for _, name := range r.engineNames() {
		fmt.Fprintf(r.Out, "%-12s", name)
		for _, class := range columnClasses {
			for _, size := range r.Sizes {
				_, cell := r.Engine(name, class, size)
				if cell.err != nil {
					fmt.Fprintf(r.Out, " %-9s", "-")
					continue
				}
				eff := cell.dur + time.Duration(cell.stats.PageIO)*r.IOCost
				fmt.Fprintf(r.Out, " %-9d", eff.Milliseconds())
			}
		}
		fmt.Fprintln(r.Out)
	}
	return nil
}

// csvRow emits one machine-readable result row, preceded by the header
// row on first use.
func (r *Runner) csvRow(table int, engine string, class core.Class, size core.Size, val string) {
	if !r.csvHeader {
		fmt.Fprintln(r.Out, "table,engine,class,size,value_ms")
		r.csvHeader = true
	}
	fmt.Fprintf(r.Out, "%d,%s,%s,%s,%s\n", table, engine, class.Code(), size, val)
}

// noteErr records a cell failure for FlushErrors.
func (r *Runner) noteErr(engine string, class core.Class, size core.Size, q core.QueryID, err error) {
	r.errs = append(r.errs, fmt.Sprintf("%s %s/%s %s: %v", engine, class.Code(), size, q, err))
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
	if r.CSV {
		prefix = "# "
	}
	fmt.Fprintf(r.Out, "\n%s%d cell(s) failed:\n", prefix, len(r.errs))
	for _, e := range r.errs {
		fmt.Fprintf(r.Out, "%s  error: %s\n", prefix, e)
	}
	r.errs = nil
}

// QueryTable runs and prints one of Tables 5-9.
func (r *Runner) QueryTable(tableNo int) error {
	q, ok := TableQueries[tableNo]
	if !ok {
		return fmt.Errorf("bench: no query table %d", tableNo)
	}
	if r.CSV {
		for _, name := range r.engineNames() {
			for _, class := range columnClasses {
				for _, size := range r.Sizes {
					r.csvRow(tableNo, name, class, size, r.queryCell(name, class, size, q))
				}
			}
		}
		r.FlushErrors()
		return nil
	}
	title := fmt.Sprintf("Table %d. Query %s Execution Time (in Milliseconds)", tableNo, q)
	r.printHeader(title)
	for _, name := range r.engineNames() {
		fmt.Fprintf(r.Out, "%-12s", name)
		for _, class := range columnClasses {
			for _, size := range r.Sizes {
				cellText := r.queryCell(name, class, size, q)
				fmt.Fprintf(r.Out, " %-9s", cellText)
			}
		}
		fmt.Fprintln(r.Out)
	}
	r.FlushErrors()
	return nil
}

// queryCell measures one cold query cell, averaging Repeat runs. It
// returns "-" for unsupported combinations (the paper's blank cells).
func (r *Runner) queryCell(engineName string, class core.Class, size core.Size, q core.QueryID) string {
	e, cell := r.Engine(engineName, class, size)
	if cell.err != nil || e == nil {
		return "-"
	}
	var total time.Duration
	n := r.Repeat
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		m := workload.RunCold(context.Background(), e, class, q)
		if m.Err != nil {
			r.noteErr(engineName, class, size, q, m.Err)
			return "err"
		}
		total += m.Elapsed + time.Duration(m.Result.PageIO)*r.IOCost
	}
	avg := total / time.Duration(n)
	// Sub-millisecond cells print with a decimal so small databases remain
	// comparable.
	ms := float64(avg.Microseconds()) / 1000
	if ms >= 10 {
		return fmt.Sprintf("%.0f", ms)
	}
	return fmt.Sprintf("%.2f", ms)
}

// Measure runs one cold query and returns the measurement (used by the
// testing.B benchmarks).
func (r *Runner) Measure(engineName string, class core.Class, size core.Size, q core.QueryID) (workload.Measurement, error) {
	e, cell := r.Engine(engineName, class, size)
	if cell.err != nil {
		return workload.Measurement{}, cell.err
	}
	m := workload.RunCold(context.Background(), e, class, q)
	return m, m.Err
}

// AllTables prints Tables 1-9 (1-3 are static, 4-9 measured). In CSV
// mode only the measured tables are emitted.
func (r *Runner) AllTables() error {
	if !r.CSV {
		PrintTable1(r.Out)
		PrintTable2(r.Out)
		PrintTable3(r.Out)
	}
	if err := r.Table4(); err != nil {
		return err
	}
	for t := 5; t <= 9; t++ {
		if err := r.QueryTable(t); err != nil {
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
