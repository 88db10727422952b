// Package workload binds the XBench query parameters and drives query
// execution against the engines: cold run per query (buffer pools flushed
// first), wall-clock and page-I/O measurement, and a result checker that
// compares engine answers against the native engine's, honoring the
// paper's caveats about shredded mappings.
package workload

import (
	"context"
	"fmt"
	"time"

	"xbench/internal/core"
	"xbench/internal/metrics"
	"xbench/internal/queries"
	"xbench/internal/textgen"
)

// Params binds the external variables of every query of a class. The
// generators guarantee these values exist in any database of the class
// (first-entry headwords, first ids, pool author names, date windows that
// span the middle of the generation window).
func Params(class core.Class) core.Params {
	p := core.Params{
		"W2":     "system",         // uni-gram search word (vocabulary head region)
		"PHRASE": textgen.Phrase(), // n-gram search phrase
		"LO":     "1997-01-01",     // date window start
		"HI":     "2001-12-30",     // date window end
		"Z":      textgen.Country(0),
		"N":      "900",
		"K1":     "data",
		"K2":     "system",
	}
	switch class {
	case core.TCSD:
		p["W"] = textgen.Headword(1) // hw of entry 2
		p["Y"] = textgen.FullName(1)
		p["L"] = "London"
	case core.TCMD:
		p["X"] = "a1"
		p["Y"] = textgen.FullName(1)
		p["DOC"] = "article1.xml"
	case core.DCSD:
		p["X"] = "I1"
		p["Y"] = textgen.LastName(0)
	case core.DCMD:
		p["X"] = "O1"
		p["I"] = "I1"
		p["DOC"] = "order1.xml"
	}
	return p
}

// Indexes returns the Table 3 index specs for a class.
func Indexes(class core.Class) []core.IndexSpec { return queries.Indexes(class) }

// Defined reports whether a query type is instantiated for a class.
func Defined(class core.Class, q core.QueryID) bool {
	return queries.Lookup(class, q) != nil
}

// QueryIDs returns the query types instantiated for a class.
func QueryIDs(class core.Class) []core.QueryID {
	var out []core.QueryID
	for _, d := range queries.ForClass(class) {
		out = append(out, d.ID)
	}
	return out
}

// Measurement is the outcome of one query execution.
type Measurement struct {
	Engine  string
	Class   core.Class
	Query   core.QueryID
	Elapsed time.Duration
	Result  core.Result
	Err     error
	// PageIO is the run's page I/O: the engine's PageIO after the run
	// less before it, both read outside the timed window. I/O another
	// stream does on the engine meanwhile counts too, so the figure is the
	// run's own only when it runs alone, as every caller here does.
	PageIO int64
	// Cold reports whether the engine's caches were dropped before the run.
	Cold bool
	// Breakdown attributes the run: pager I/O, cache hits, btree visits,
	// relational probes/scans and per-phase times, taken as the delta of
	// the engine's metrics registry across the Execute call. Zero-valued
	// (and safe to read) when the engine exposes no registry.
	Breakdown metrics.Breakdown
}

// MetricsProvider is the optional interface through which an engine
// exposes its metrics registry. All four real engines implement it; the
// core.Engine interface deliberately does not require it, so stub engines
// in tests stay minimal.
type MetricsProvider interface {
	Metrics() *metrics.Registry
}

// run executes one query, reading the engine's page I/O and snapshotting
// its metrics registry (if any) around the Execute call so the
// Measurement carries the run's page I/O and a per-run counter and phase
// breakdown.
func run(ctx context.Context, e core.Engine, class core.Class, q core.QueryID, cold bool) Measurement {
	m := Measurement{Engine: e.Name(), Class: class, Query: q, Cold: cold}
	if cold {
		e.ColdReset()
	}
	io := e.PageIO()
	var reg *metrics.Registry
	var before metrics.Snapshot
	if mp, ok := e.(MetricsProvider); ok {
		reg = mp.Metrics()
		before = reg.Snapshot()
	}
	start := time.Now()
	res, err := e.Execute(ctx, q, Params(class))
	m.Elapsed = time.Since(start)
	if reg != nil {
		m.Breakdown = reg.Snapshot().Delta(before)
	}
	m.PageIO = e.PageIO() - io
	m.Result = res
	m.Err = err
	return m
}

// RunCold executes one query cold: the engine's caches are dropped first,
// reproducing the paper's "cold run time ... to prevent caching effects".
func RunCold(ctx context.Context, e core.Engine, class core.Class, q core.QueryID) Measurement {
	return run(ctx, e, class, q, true)
}

// RunWarm executes one query without dropping caches: the buffer pool
// keeps whatever earlier runs left in it, so warm-vs-cold deltas isolate
// the simulated disk component of a cell.
func RunWarm(ctx context.Context, e core.Engine, class core.Class, q core.QueryID) Measurement {
	return run(ctx, e, class, q, false)
}

// RunAll executes every query defined for the class cold, in query order.
func RunAll(ctx context.Context, e core.Engine, class core.Class) []Measurement {
	var out []Measurement
	for _, q := range QueryIDs(class) {
		out = append(out, RunCold(ctx, e, class, q))
	}
	return out
}

// LoadAndIndex bulk-loads a database into an engine and builds the Table 3
// indexes, returning the load statistics and the load duration (index
// creation excluded from the load time, matching the paper's setup where
// arbitrary indexes are created separately after bulk loading).
func LoadAndIndex(ctx context.Context, e core.Engine, db *core.Database) (core.LoadStats, time.Duration, error) {
	if err := e.Supports(db.Class, db.Size); err != nil {
		return core.LoadStats{}, 0, err
	}
	start := time.Now()
	st, err := e.Load(ctx, db)
	elapsed := time.Since(start)
	if err != nil {
		return st, elapsed, err
	}
	if err := e.BuildIndexes(Indexes(db.Class)); err != nil {
		return st, elapsed, fmt.Errorf("workload: index build: %w", err)
	}
	return st, elapsed, nil
}

// CheckMode says how strictly an engine's result can be compared with the
// native engine's for a given query.
type CheckMode int

const (
	// Exact requires identical serialized items in identical order.
	Exact CheckMode = iota
	// CountOnly requires only the same number of items: the shredded
	// mapping lost structure (mixed content, qp grouping, <p> boundaries)
	// or order, so content comparison is meaningless — the paper reports
	// those engines' results "are not necessarily accurate" but measures
	// them anyway (§3.2.2).
	CountOnly
	// Lossy accepts any answer: the mapping lost the very data the query
	// reads (SQL Server searching text it discarded as unmappable mixed
	// content), so even the result count is wrong by construction. The
	// paper reports the performance of such queries while noting they
	// "may not generate correct results" (§3.1.3).
	Lossy
)

func (m CheckMode) String() string {
	switch m {
	case Exact:
		return "exact"
	case CountOnly:
		return "count-only"
	case Lossy:
		return "lossy"
	}
	return "unknown"
}

// ModeFor returns how a non-native engine's result for (class, q) can be
// checked against the native answer.
func ModeFor(class core.Class, q core.QueryID, engineName string) CheckMode {
	def := queries.Lookup(class, q)
	if def == nil {
		return CountOnly
	}
	// Xcolumn stores documents intact: everything it answers is exact.
	if engineName == "Xcolumn" {
		return Exact
	}
	// SQL Server discarded mixed-content text entirely; queries that read
	// it cannot even match the right rows.
	if def.TouchesMixed && engineName == "SQL Server" {
		return Lossy
	}
	// Text search over a shredded dictionary diverges from the XQuery
	// string-value semantics: string(.) concatenates adjacent text nodes
	// (erasing word boundaries at element joins) while a column-wise scan
	// searches each shredded value separately. Either may match entries
	// the other misses. The phrase search Q18 shares the problem, and so
	// does Q17 over the shredded TC/MD articles: at Normal, on about half
	// the seeds, the shredding engines match one article more than the
	// native engine does.
	if class == core.TCSD && (q == core.Q17 || q == core.Q18) ||
		class == core.TCMD && q == core.Q17 {
		return Lossy
	}
	// Whole-entry reconstruction (TC/SD Q1) rebuilds a fragment whose qp
	// grouping did not survive shredding: right cardinality, wrong shape.
	if class == core.TCSD && q == core.Q1 {
		return CountOnly
	}
	// TC/MD Q12/Q13 rebuild the abstract exactly from its shredded
	// paragraph rows, so despite being order-sensitive the reconstruction
	// join is checked strictly.
	if class == core.TCMD && (q == core.Q12 || q == core.Q13) {
		return Exact
	}
	if def.OrderSensitive || def.TouchesMixed {
		return CountOnly
	}
	return Exact
}

// Check compares an engine result against the native result under a mode.
// It returns a descriptive error on mismatch.
func Check(mode CheckMode, native, got core.Result) error {
	if mode == Lossy {
		return nil
	}
	if len(native.Items) != len(got.Items) {
		return fmt.Errorf("result count %d, native %d", len(got.Items), len(native.Items))
	}
	if mode == CountOnly {
		return nil
	}
	for i := range native.Items {
		if native.Items[i] != got.Items[i] {
			return fmt.Errorf("item %d differs:\n  native: %s\n  engine: %s",
				i, truncate(native.Items[i]), truncate(got.Items[i]))
		}
	}
	return nil
}

func truncate(s string) string {
	if len(s) > 200 {
		return s[:200] + "..."
	}
	return s
}
