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
// This file is the public facade: it re-exports the types and
// constructors a downstream user needs, so the internal packages stay
// free to evolve.
package xbench

import (
	"context"
	"fmt"
	"io"

	"xbench/internal/bench"
	"xbench/internal/client"
	"xbench/internal/core"
	"xbench/internal/driver"
	"xbench/internal/gen"
	"xbench/internal/metrics"
	"xbench/internal/pager"
	"xbench/internal/router"
	"xbench/internal/server"
	"xbench/internal/workload"
	"xbench/internal/xmldom"
	"xbench/internal/xmlschema"
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
	// IndexSpec is a Table 3 value index definition.
	IndexSpec = core.IndexSpec
	// PlanNode is one operator of a costed physical query plan
	// (see Explain).
	PlanNode = core.PlanNode
	// Explainer is the optional Engine extension that describes query
	// plans without executing them.
	Explainer = core.Explainer
	// GenConfig controls database generation scale and seed.
	GenConfig = gen.Config
	// Measurement is one cold query measurement.
	Measurement = workload.Measurement
	// FaultPolicy configures the fault-injecting disk (see WithFaultPolicy).
	FaultPolicy = pager.FaultPolicy
	// MetricsRegistry collects counters, spans and histograms
	// (see WithMetrics).
	MetricsRegistry = metrics.Registry
	// ThroughputConfig controls the multi-client workload driver.
	ThroughputConfig = driver.Config
	// ThroughputReport is one closed-loop driver run's result.
	ThroughputReport = driver.Report
	// Server exposes an Engine over TCP (see NewServer, DESIGN.md §11).
	Server = server.Server
	// ServerConfig tunes the server's address, admission control and
	// per-request timeout cap.
	ServerConfig = server.Config
	// Client is a remote engine handle; it satisfies Engine, so drivers
	// run unchanged against a served engine (see Connect).
	Client = client.Client
	// ClientConfig tunes the client's pool, dial timeout and retry policy.
	ClientConfig = client.Config
	// Router coordinates a sharded serving tier: a hash-partitioned
	// scatter-gather Engine over N served shards (see ConnectShards,
	// DESIGN.md §16).
	Router = router.Router
	// RouterShard declares one shard of a sharded cluster: a primary
	// address plus the read replicas its journal feeds.
	RouterShard = router.Shard
	// RouterConfig tunes the router's partitioning, scatter fan-out,
	// partial-failure policy and read preference.
	RouterConfig = router.Config
)

// Read preferences for RouterConfig.ReadPref.
const (
	ReadPrimary = router.ReadPrimary
	ReadReplica = router.ReadReplica
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

// ErrUnsupported marks class/size combinations an engine cannot host.
var ErrUnsupported = core.ErrUnsupported

// ErrNoQuery marks workload queries a class does not instantiate.
var ErrNoQuery = core.ErrNoQuery

// ErrNoExplain marks engines (or old servers) that execute queries but
// cannot describe their plans; Explain wraps it so callers can degrade
// gracefully with errors.Is.
var ErrNoExplain = core.ErrNoExplain

// Classes lists all four classes in the paper's table order.
var Classes = core.Classes

// Sizes lists the three sizes the paper reports (Small, Normal, Large).
var Sizes = core.Sizes

// Generate builds the benchmark database for a class at a size with the
// default configuration (deterministic; ~0.4 MB at Small, 10x per step).
func Generate(class Class, size Size) (*Database, error) {
	return gen.Generate(class, size)
}

// ParseClass converts "tcsd", "TC/SD", ... to a Class.
func ParseClass(s string) (Class, error) { return core.ParseClass(s) }

// ParseSize converts "small", "normal", ... to a Size.
func ParseSize(s string) (Size, error) { return core.ParseSize(s) }

// NewMetricsRegistry creates an empty metrics registry to pass to
// WithMetrics.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// Option configures an engine built by New.
type Option func(*engineOptions)

type engineOptions struct {
	poolPages int
	rowLimit  int
	fault     *pager.FaultPolicy
	metrics   *metrics.Registry
}

// WithPoolPages sizes the engine's buffer pool in pages; <= 0 selects the
// default.
func WithPoolPages(n int) Option { return func(o *engineOptions) { o.poolPages = n } }

// WithRowLimit sets the per-document decomposition row limit of the
// Xcollection engine (<= 0 selects the default). Other engines ignore it.
func WithRowLimit(n int) Option { return func(o *engineOptions) { o.rowLimit = n } }

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
	e, err := bench.EngineByName(name, o.poolPages, o.rowLimit)
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

// Engines returns one fresh instance of each of the four systems, in the
// paper's row order (Xcolumn, Xcollection, SQL Server, X-Hive).
func Engines() []Engine {
	out := make([]Engine, 0, len(bench.EngineNames))
	for _, n := range bench.EngineNames {
		out = append(out, bench.NewEngine(n))
	}
	return out
}

// LoadAndIndex bulk-loads db into e and builds the Table 3 indexes.
// Cancellation via ctx is honored at page-fetch granularity.
func LoadAndIndex(ctx context.Context, e Engine, db *Database) (LoadStats, error) {
	st, _, err := workload.LoadAndIndex(ctx, e, db)
	return st, err
}

// QueryParams returns the deterministic parameter bindings for a class.
func QueryParams(class Class) Params { return workload.Params(class) }

// Explain returns the costed physical plan the engine would execute for
// q, as a printable tree (PlanNode.Format). Engines that cannot explain
// — a foreign Engine implementation, locally or behind a server — return
// an error wrapping ErrNoExplain.
func Explain(ctx context.Context, e Engine, q QueryID, p Params) (*PlanNode, error) {
	return core.Explain(ctx, e, q, p)
}

// RunCold executes one workload query cold (caches dropped first).
func RunCold(ctx context.Context, e Engine, class Class, q QueryID) Measurement {
	return workload.RunCold(ctx, e, class, q)
}

// Throughput runs the closed-loop multi-client workload driver against a
// loaded engine and reports qps plus per-query latency percentiles. The
// engine must already be loaded and indexed (see LoadAndIndex).
func Throughput(ctx context.Context, e Engine, class Class, cfg ThroughputConfig) (ThroughputReport, error) {
	return driver.Run(ctx, e, class, cfg)
}

// NewServer wraps an engine in a TCP server (not yet listening; call
// Start, and Shutdown/Close to drain). A zero ServerConfig listens on an
// ephemeral loopback port with the default admission control.
func NewServer(e Engine, cfg ServerConfig) *Server { return server.New(e, cfg) }

// Connect dials an xbench server (see NewServer or `xbench serve`) and
// returns a remote Engine. Closing it releases the client's connections
// only; the server and its engine keep running.
func Connect(addr string, cfg ClientConfig) (*Client, error) { return client.Dial(addr, cfg) }

// ConnectShards dials every shard of a served cluster and returns the
// coordinating Router: an Engine that hash-partitions documents across
// the shards, routes single-document queries and the U1-U3 updates to the
// owning shard, and scatter-gathers everything else. Closing it releases
// the coordinator's connections only; the shard servers keep running.
func ConnectShards(shards []RouterShard, cfg RouterConfig) (*Router, error) {
	return router.Dial(shards, cfg)
}

// WorkloadQueries returns the query types instantiated for a class.
func WorkloadQueries(class Class) []QueryID { return workload.QueryIDs(class) }

// Indexes returns the Table 3 index specs for a class.
func Indexes(class Class) []IndexSpec { return workload.Indexes(class) }

// SchemaDiagram renders the ASCII schema tree of a class (the information
// of paper Figures 1-4).
func SchemaDiagram(class Class) string { return xmlschema.For(class).Diagram() }

// SchemaDTD renders the DTD of a class.
func SchemaDTD(class Class) string { return xmlschema.For(class).DTD() }

// SchemaXSD renders the W3C XML Schema of a class (XBench supports XML
// Schema, unlike the benchmarks the paper compares against).
func SchemaXSD(class Class) string { return xmlschema.For(class).XSD() }

// NewBenchRunner returns the harness that regenerates the paper's tables.
// A zero GenConfig uses the defaults; nil sizes means Small/Normal/Large.
func NewBenchRunner(cfg GenConfig, sizes []Size, out io.Writer) *bench.Runner {
	return bench.NewRunner(cfg, sizes, out)
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
