package core

import (
	"context"
	"errors"
)

// ErrUnsupported is returned by engines that cannot host a class/size
// combination, mirroring the blank cells of the paper's result tables
// (Xcolumn cannot store SD classes; Xcollection rejects Normal/Large SD
// databases due to its 1024-row decomposition limit).
var ErrUnsupported = errors.New("core: class/size combination not supported by this engine")

// ErrNoQuery is returned when a workload query is not defined for the
// engine's class (each class instantiates only a subset of Q1..Q20).
var ErrNoQuery = errors.New("core: query not defined for this class")

// ErrReadOnly is returned by engines that decline document updates: a
// read replica serves queries only and is fed through its primary's
// journal (server.Config.ReplicaOf).
var ErrReadOnly = errors.New("core: engine does not support document updates")

// ErrServed is what Load and BuildIndexes return on a served engine's
// remote handle (internal/client, internal/router): the server's own
// process loaded the database it serves, so no load travels over the
// wire.
var ErrServed = errors.New("core: a served engine holds the database its server loaded (start it with xbench serve)")

// IsNotAnswered reports whether err means an engine legitimately declines
// a query — the query is not defined for the class or the combination is
// unsupported — rather than failing it.
func IsNotAnswered(err error) bool {
	return errors.Is(err, ErrNoQuery) || errors.Is(err, ErrUnsupported)
}

// Engine is a system under test. The implementations model the four
// systems of the paper: native (X-Hive), and rdbms, the relational engine,
// under its three policies (DB2 XML Extender XML column and XML
// collection; SQL Server 2000 + SQLXML bulk load).
//
// Concurrency contract: Execute is safe to call from many goroutines
// against a loaded database. Load, BuildIndexes and ColdReset are
// exclusive — they block until in-flight queries drain and queries issued
// meanwhile wait. PageIO may be read at any time.
type Engine interface {
	// Name returns the row label used in the paper's tables,
	// e.g. "Xcolumn", "Xcollection", "SQL Server", "X-Hive".
	Name() string

	// Supports reports whether the engine can host the combination; it
	// returns nil or ErrUnsupported (possibly wrapped with a reason).
	Supports(c Class, s Size) error

	// Load bulk-loads a generated database, replacing any prior contents.
	// Validation against a schema is off, as in the paper's experiments.
	// Cancellation via ctx is honored between documents; a canceled load
	// leaves an empty, loadable database.
	Load(ctx context.Context, db *Database) (LoadStats, error)

	// BuildIndexes creates the value indexes of paper Table 3 relevant to
	// the loaded class. Called after Load, exactly like the paper ("all
	// arbitrary indexes are created separately after bulk loading").
	BuildIndexes(specs []IndexSpec) error

	// Execute runs one workload query with bound parameters. Engines that
	// are not native XML stores run their own hand-translated relational
	// plans, as the paper's authors translated XQuery to SQL by hand.
	// Cancellation/timeout via ctx is honored at page-fetch granularity:
	// the scan and probe loops check the context before each page access.
	Execute(ctx context.Context, q QueryID, p Params) (Result, error)

	// ColdReset drops all cached pages so the next query is a cold run
	// ("from the time when a user submits a request ... to prevent caching
	// effects"). It quiesces: in-flight queries finish first, and queries
	// submitted during the reset wait for it.
	ColdReset()

	// PageIO returns cumulative page I/O performed by the engine. It is
	// safe to call concurrently with Execute. A query's page I/O is its
	// difference across the query, taken by whoever runs it alone.
	PageIO() int64

	// InsertDocument adds a new document to the loaded database (update
	// workload U1). It fails if a document of that name already exists.
	// An update is applied whole or not at all: a failed apply stops the
	// engine until the next Load, and a restart after a crash at any
	// point recovers either the pre- or the post-insert state, never a
	// torn one. The three update methods are adapters onto
	// updatelog.Applier's Apply, which every engine of the repository
	// implements: the server, the journal's replay, a replica and the
	// update workload call Apply, with the update's journal record and
	// its durable step as arguments.
	InsertDocument(ctx context.Context, name string, data []byte) error

	// ReplaceDocument replaces the named document wholesale (U2), or
	// inserts it when absent (upsert). Crash-atomic like InsertDocument.
	ReplaceDocument(ctx context.Context, name string, data []byte) error

	// DeleteDocument removes the named document (U3), failing if it does
	// not exist. Crash-atomic like InsertDocument.
	DeleteDocument(ctx context.Context, name string) error

	// Close releases the engine's pager resources (heap files, buffer
	// pool, fault state). Double-Close is safe; operations after Close fail.
	Close() error
}
