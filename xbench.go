// Package xbench is an open-source reproduction of the XBench family of
// XML database benchmarks (Yao, Özsu, Khandelwal: "XBench Benchmark and
// Performance Testing of XML DBMSs", ICDE 2004).
//
// It provides, entirely in Go with no dependencies outside the standard
// library:
//
//   - Deterministic generators for the four XBench database classes
//     (TC/SD dictionary, TC/MD article corpus, DC/SD catalog, DC/MD
//     orders + flat documents), driven by a ToXgene-style template engine
//     and a TPC-W-derived relational population.
//   - The Q1-Q20 workload instantiated per class, with the Table 3 value
//     indexes and deterministic parameter bindings.
//   - Four storage engines reproducing the architectures the paper
//     evaluates: a native XML store (X-Hive analog) and a relational
//     engine under three policies, CLOB-plus-side-tables (DB2 Xcolumn
//     analog) and shredding (DB2 Xcollection and SQL Server analogs), all
//     running over a simulated pager with a buffer pool so cold-run costs
//     are observable.
//   - An XQuery subset engine that the native store executes directly.
//   - A benchmark harness that regenerates the paper's Tables 1-9 and the
//     schema diagrams of Figures 1-4.
//
// This file is the Go facade: what the README's quick start and the
// repository's benchmark call, and the types and constants their
// signatures take. Everything else is reached through the xbench CLI
// (cmd/xbench), so the internal packages stay free to evolve.
package xbench

import (
	"context"
	"fmt"

	"xbench/internal/bench"
	"xbench/internal/core"
	"xbench/internal/gen"
	"xbench/internal/metrics"
	"xbench/internal/pager"
	"xbench/internal/workload"
	"xbench/internal/xmldom"
	"xbench/internal/xquery"
)

// Core vocabulary.
type (
	// Class is one of the four benchmark database classes.
	Class = core.Class
	// Size is a database scale step (Small/Normal/Large/Huge, 10x apart).
	Size = core.Size
	// QueryID identifies one of the 20 abstract workload queries.
	QueryID = core.QueryID
	// Params binds the external variables of a query.
	Params = core.Params
	// Result is a query execution outcome.
	Result = core.Result
	// Database is a generated document set.
	Database = core.Database
	// Doc is one serialized document.
	Doc = core.Doc
	// Engine is a system under test.
	Engine = core.Engine
	// LoadStats reports what a bulk load did.
	LoadStats = core.LoadStats
	// Measurement is one cold query measurement.
	Measurement = workload.Measurement
	// FaultPolicy configures the fault-injecting disk (see WithFaultPolicy).
	FaultPolicy = pager.FaultPolicy
	// MetricsRegistry collects counters, spans and histograms
	// (see WithMetrics).
	MetricsRegistry = metrics.Registry
)

// The four classes (paper Table 1).
const (
	TCSD = core.TCSD
	TCMD = core.TCMD
	DCSD = core.DCSD
	DCMD = core.DCMD
)

// The scale steps.
const (
	Small  = core.Small
	Normal = core.Normal
	Large  = core.Large
	Huge   = core.Huge
)

// Workload query ids (the paper's 20 abstract query types).
const (
	Q1  = core.Q1
	Q2  = core.Q2
	Q3  = core.Q3
	Q4  = core.Q4
	Q5  = core.Q5
	Q6  = core.Q6
	Q7  = core.Q7
	Q8  = core.Q8
	Q9  = core.Q9
	Q10 = core.Q10
	Q11 = core.Q11
	Q12 = core.Q12
	Q13 = core.Q13
	Q14 = core.Q14
	Q15 = core.Q15
	Q16 = core.Q16
	Q17 = core.Q17
	Q18 = core.Q18
	Q19 = core.Q19
	Q20 = core.Q20
)

// Generate builds the benchmark database for a class at a size with the
// default configuration (deterministic; ~0.4 MB at Small, 10x per step).
func Generate(class Class, size Size) (*Database, error) {
	return gen.Generate(class, size)
}

// NewMetricsRegistry creates an empty metrics registry to pass to
// WithMetrics.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// Option configures an engine built by New.
type Option func(*engineOptions)

type engineOptions struct {
	poolPages int
	fault     *pager.FaultPolicy
	metrics   *metrics.Registry
}

// WithPoolPages sizes the engine's buffer pool in pages; <= 0 selects the
// default.
func WithPoolPages(n int) Option { return func(o *engineOptions) { o.poolPages = n } }

// WithFaultPolicy installs a fault-injection policy on the engine's pager
// (simulated transient read faults and a crash after N disk operations).
func WithFaultPolicy(fp FaultPolicy) Option {
	return func(o *engineOptions) { o.fault = &fp }
}

// WithMetrics attaches a metrics registry to the engine's pager so disk,
// operator and phase counters accumulate there.
func WithMetrics(reg *MetricsRegistry) Option {
	return func(o *engineOptions) { o.metrics = reg }
}

// New constructs an engine by name with functional options. Recognized
// names (case, spaces, '-' and '_' ignored): "native" or "x-hive",
// "xcolumn", "xcollection", "sqlserver" or "sql server" — the same table
// the CLI's --engine flag reads.
//
//	e, err := xbench.New("native", xbench.WithPoolPages(256))
func New(name string, opts ...Option) (Engine, error) {
	var o engineOptions
	for _, opt := range opts {
		opt(&o)
	}
	e, err := bench.EngineByName(name, o.poolPages)
	if err != nil {
		return nil, fmt.Errorf("xbench: %w", err)
	}
	if o.fault != nil || o.metrics != nil {
		p := e.(interface{ Pager() *pager.Pager }).Pager()
		if o.fault != nil {
			p.SetFaultPolicy(*o.fault)
		}
		if o.metrics != nil {
			p.SetMetrics(o.metrics)
		}
	}
	return e, nil
}

// LoadAndIndex bulk-loads db into e and builds the Table 3 indexes.
// Cancellation via ctx is honored at page-fetch granularity.
func LoadAndIndex(ctx context.Context, e Engine, db *Database) (LoadStats, error) {
	st, _, err := workload.LoadAndIndex(ctx, e, db)
	return st, err
}

// RunCold executes one workload query cold (caches dropped first).
func RunCold(ctx context.Context, e Engine, class Class, q QueryID) Measurement {
	return workload.RunCold(ctx, e, class, q)
}

// EvalXQuery compiles and evaluates a query in the XBench subset over a
// set of serialized documents, returning the serialized result items. It
// is the quickest way to use the query engine directly. A construct outside
// the subset (results/xquery_surface.txt lists what is in it) fails to
// compile with "not in the XBench subset: <construct>".
func EvalXQuery(query string, docs []Doc, vars Params) ([]string, error) {
	coll := xquery.NewCollection()
	for _, d := range docs {
		rec := new(xmldom.Record)
		if err := xmldom.ParseRecord(rec, d.Data); err != nil {
			return nil, err
		}
		coll.Add(d.Name, rec)
	}
	q, err := xquery.Parse(query)
	if err != nil {
		return nil, err
	}
	seq, err := q.Eval(context.Background(), coll, vars)
	if err != nil {
		return nil, err
	}
	return xquery.SerializeSeq(seq), nil
}
