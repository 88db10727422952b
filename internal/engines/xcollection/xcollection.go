// Package xcollection implements the shredding engine: an "XML
// collection" in the DB2 XML Extender's term, a document decomposed into
// a collection of relational tables. The two shredding systems of the
// paper — DB2 Xcollection and Microsoft SQL Server 2000 + SQLXML 3.0 bulk
// load — are this one engine: both decompose documents according to a
// DAD-style / annotated-schema mapping (internal/shredder), create
// primary/foreign-key indexes automatically during bulk loading, commit
// document-at-a-time, and run queries as hand-translated operator trees
// (shredplan). Neither keeps document-order columns, so ordered
// access and reconstruction are only accidentally correct (§3.2.2).
//
// What the paper lists as different between them (§3.1.3) is a Policy:
//
//   - DB2 has the 1024-row decomposition limit per document (item 5),
//     scaled to this reproduction's database sizes: single-document
//     classes load only at Small. Mixed-content elements keep their
//     flattened text.
//   - SQLServer has no such limit — its rows are present in all cells of
//     Tables 4-9 — but cannot map mixed-content elements at all and drops
//     their text (item 3: "We have to ignore these elements with mixed
//     contents, such as the element qt in dictionary.xml").
package xcollection

import (
	"context"
	"fmt"
	"strings"

	"xbench/internal/core"
	"xbench/internal/engines/engbase"
	"xbench/internal/engines/shredplan"
	"xbench/internal/pager"
	"xbench/internal/plan"
	"xbench/internal/relational"
	"xbench/internal/shredder"
	"xbench/internal/xmldom"
)

// DefaultRowLimit is DB2's decomposition row limit per document,
// modeling DB2's 1024-row limit (§3.1.3 item 5). The class/size support
// matrix the paper observed — single-document databases load only at
// Small — is enforced directly by Supports; this mechanism backs it up
// and is configurable for tests, with a default high enough that the
// paper-valid combinations (including the DC/MD flat documents at Large)
// still load.
const DefaultRowLimit = 1 << 17

// Policy is one of the two modeled systems: DB2 or SQLServer.
type Policy struct {
	name string // row label in the paper's tables, and error prefix
	// rowLimit is the per-document decomposition row limit; 0 means the
	// system has none. A system with one hosts single-document classes
	// only at Small (paper Tables 4-9 leave those cells blank).
	rowLimit  int
	dropMixed bool // mixed-content text is unmappable and dropped
}

// The two shredding systems the paper evaluates.
var (
	DB2       = Policy{name: "Xcollection", rowLimit: DefaultRowLimit}
	SQLServer = Policy{name: "SQL Server", dropMixed: true}
)

// Engine is a shredding engine instance: the shared engine lifecycle
// (engbase.Base: load, snapshot reads, updates, close) over a
// shredded store.
type Engine struct{ *engbase.Base[view] }

// view is the engine's read surface and query path (engbase.View): the
// shredded store's tables at one commit epoch, queried by the operator
// trees of shredplan.
type view struct{ src shredplan.Source }

// Class implements engbase.View.
func (v view) Class() core.Class { return v.src.Class }

// Stats implements engbase.View.
func (v view) Stats() plan.StatValues { return shredplan.StoreStats(v.src) }

// Exec implements engbase.View: the operator tree of ph's query.
// Cancellation via ctx is honored at page-fetch granularity.
func (v view) Exec(ctx context.Context, ph *plan.Physical, p core.Params) (core.Result, error) {
	return shredplan.Exec(ctx, v.src, ph, p)
}

// Explain implements engbase.View: the operator tree Exec walks, drawn
// with ph's access path.
func (v view) Explain(ph *plan.Physical) (*core.PlanNode, error) {
	return shredplan.Explain(shredplan.Shredded, v.src.Class, ph)
}

// store is the shredded layout; it implements engbase.Store, which
// states the locking each method runs under.
type store struct {
	pol    Policy
	p      *pager.Pager
	shred  *shredder.Store   // nil until loaded
	docIDs map[string]string // document name -> unit-document root id
}

// New returns an empty engine of the given system. rowLimit > 0
// overrides the decomposition row limit of a system that has one.
func New(pol Policy, poolPages, rowLimit int) *Engine {
	if pol.rowLimit > 0 && rowLimit > 0 {
		pol.rowLimit = rowLimit
	}
	p := pager.New(poolPages)
	return &Engine{engbase.New[view](p, &store{pol: pol, p: p})}
}

var (
	_ core.Engine    = (*Engine)(nil)
	_ core.Explainer = (*Engine)(nil)
)

// Name implements core.Engine.
func (s *store) Name() string { return s.pol.name }

// Supports implements core.Engine: under a decomposition row limit
// single-document classes only fit at Small.
func (s *store) Supports(c core.Class, sz core.Size) error {
	if s.pol.rowLimit > 0 && c.SingleDocument() && sz != core.Small {
		return fmt.Errorf("%s: %s %s: document decomposition exceeds the row limit: %w",
			s.pol.name, c, sz, core.ErrUnsupported)
	}
	return nil
}

// Freeze implements engbase.Store: the tables at epoch (relational.DB.View).
func (s *store) Freeze(epoch uint64) (view, error) {
	db, err := s.shred.DB.View(epoch)
	return view{shredplan.Source{Class: s.shred.Class, DB: db, DropMixed: s.shred.Opts.DropMixed}}, err
}

// Reset implements engbase.Store.
func (s *store) Reset() error {
	s.docIDs = nil
	if s.shred != nil {
		if err := s.shred.Truncate(); err != nil {
			return err
		}
		s.shred = nil
	}
	return nil
}

// LoadDocs implements engbase.Store: shred each document as its own
// transaction — every table flushed and synced per document, because both
// DB2's decomposition and the SQLXML bulk loader work document-at-a-time
// (the per-document I/O is what makes DC/MD the slowest class to load in
// Table 4) — then build the key indexes.
func (s *store) LoadDocs(ctx context.Context, db *core.Database) (core.LoadStats, error) {
	var st core.LoadStats
	s.docIDs = make(map[string]string, len(db.Docs))
	s.shred = shredder.NewStore(db.Class, relational.NewDB(s.p), shredder.Options{
		RowLimitPerDoc: s.pol.rowLimit,
		DropMixed:      s.pol.dropMixed,
	})
	err := engbase.ParseDocs(ctx, s.pol.name, db, func(d *core.Doc, rec *xmldom.Record) error {
		rows, err := s.shred.ShredDocument(d.Name, rec)
		if err == nil {
			err = s.shred.Sync()
		}
		if err != nil {
			return err
		}
		if id, ok := shredder.UnitDocID(db.Class, rec); ok {
			s.docIDs[d.Name] = id
		}
		st.Documents++
		st.Rows += rows
		st.Bytes += len(d.Data)
		return nil
	})
	if err != nil {
		return st, err
	}
	if err := s.shred.Sync(); err != nil {
		return st, err
	}
	// Primary/foreign-key indexes are created automatically during bulk
	// loading (paper §2.2 experimental setup), so their cost lands in the
	// load time, as it did for DB2 and SQL Server in Table 4.
	if err := autoKeyIndexes(s.shred); err != nil {
		return st, err
	}
	st.SkippedMixed = s.shred.SkippedMixed
	return st, s.p.SyncAll()
}

// autoKeyIndexes builds the PK/FK indexes a relational DBMS creates during
// bulk load: every column named "id" or suffixed "_id".
func autoKeyIndexes(s *shredder.Store) error {
	for _, name := range s.DB.TableNames() {
		t := s.DB.Table(name)
		for _, col := range t.Cols {
			if col == "id" || strings.HasSuffix(col, "_id") {
				if err := t.CreateIndex(col); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// BuildIndexes implements engbase.Store: map Table 3 targets onto
// shredded table columns.
func (s *store) BuildIndexes(specs []core.IndexSpec) error {
	for _, spec := range specs {
		table, col, ok := shredder.TargetColumn(s.shred.Class, spec.Target)
		if !ok {
			continue
		}
		if err := s.shred.DB.Table(table).CreateIndex(col); err != nil {
			return err
		}
	}
	return nil
}

// The update hooks below apply U1-U3 inside the mutation bracket
// engbase.Base runs. Only unit documents — whole <order> (DC/MD) /
// <article> (TC/MD) files — can be updated: those shred into rows keyed
// by their root id, so document-granularity delete is a clean relational
// cascade (shredder.DeleteDocumentRows).

var _ engbase.Validator = (*store)(nil)

// Validate implements engbase.Validator: the document must be a unit
// document of the loaded class, within the decomposition row limit.
func (s *store) Validate(rec *xmldom.Record) error {
	if _, ok := shredder.UnitDocID(s.shred.Class, rec); !ok {
		return fmt.Errorf("not a unit document of %s: %w", s.shred.Class, core.ErrUnsupported)
	}
	_, err := s.shred.Count(rec)
	return err
}

// Exists implements engbase.Store.
func (s *store) Exists(name string) bool {
	_, ok := s.docIDs[name]
	return ok
}

// ApplyInsert implements engbase.Store: it shreds the document and
// records its root id.
func (s *store) ApplyInsert(_ context.Context, name string, _ []byte, rec *xmldom.Record) error {
	if _, err := s.shred.ShredDocument(name, rec); err != nil {
		return err
	}
	s.docIDs[name], _ = shredder.UnitDocID(s.shred.Class, rec)
	return nil
}

// ApplyDelete implements engbase.Store: the delete cascade keyed by the
// document's root id.
func (s *store) ApplyDelete(ctx context.Context, name string) error {
	if _, err := s.shred.DeleteDocumentRows(ctx, s.docIDs[name]); err != nil {
		return err
	}
	delete(s.docIDs, name)
	return nil
}
