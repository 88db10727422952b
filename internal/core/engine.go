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

// ErrReadOnly is returned by engines that decline document updates (and
// Load and BuildIndexes): a read replica serves queries only and is fed
// through its primary's journal (server.Config.ReadOnly).
var ErrReadOnly = errors.New("core: engine does not support document updates")

// IsNotAnswered reports whether err means an engine legitimately declines
// a query — the query is not defined for the class or the combination is
// unsupported — rather than failing it.
func IsNotAnswered(err error) bool {
	return errors.Is(err, ErrNoQuery) || errors.Is(err, ErrUnsupported)
}

// Engine is a system under test. The implementations model the four
// systems of the paper: native (X-Hive), xcolumn (DB2 XML Extender XML
// column), and xcollection, the shredding engine, under its two policies
// (DB2 XML Extender XML collection; SQL Server 2000 + SQLXML bulk load).
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
	// safe to call concurrently with Execute.
	PageIO() int64

	// InsertDocument adds a new document to the loaded database (update
	// workload U1). It fails if a document of that name already exists.
	// An update is applied whole or not at all: a failed apply stops the
	// engine until the next Load, and a served one is journaled once
	// applied, so a restart after a crash at any point recovers either the
	// pre- or the post-insert state, never a torn one.
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
