// Package xcolumn implements the DB2 XML Extender "XML column" analog:
// each document is kept intact as a CLOB, and side tables hold the
// searchable elements/attributes declared in the DAD (internal/shredder's
// dad.go), with a dxx_seqno column preserving the order of repeating
// elements (paper §3.1.1). Queries are the hand-translated operator trees
// of shredplan's Xcolumn layout over the side tables and the CLOBs, so
// what Explain draws is what Execute runs.
//
// Modeled properties from the paper:
//
//   - Only multi-document classes are supported: a single large XML
//     document exceeds the 2 GB CLOB limit, so TC/SD and DC/SD cells are
//     blank (§3.1.1, §3.1.3 item 6).
//   - Documents are stored intact, so reconstruction (Q12) and ordered
//     access (Q5, via dxx_seqno) are exact.
//   - Text search (Q17) has no side-table support and must scan every
//     CLOB, which is why Xcolumn's DC/MD text-search numbers explode in
//     Table 7.
package xcolumn

import (
	"context"
	"fmt"
	"strconv"

	"xbench/internal/core"
	"xbench/internal/engines/engbase"
	"xbench/internal/engines/shredplan"
	"xbench/internal/pager"
	"xbench/internal/plan"
	"xbench/internal/relational"
	"xbench/internal/shredder"
	"xbench/internal/xmldom"
)

// Engine is an Xcolumn instance: the shared engine lifecycle
// (engbase.Base: load, snapshot reads, updates, close) over
// the CLOB-plus-side-tables store.
type Engine struct {
	*engbase.Base[*view]
}

// store is the Xcolumn layout; it implements engbase.Store, which states
// the locking each method runs under.
type store struct {
	p     *pager.Pager
	class core.Class
	clobs *pager.Heap
	rids  []pager.RID          // CLOB rids in load order
	names map[string]pager.RID // document name -> CLOB rid
	db    *relational.DB
}

// New returns an empty engine.
func New(poolPages int) *Engine {
	p := pager.New(poolPages)
	s := &store{p: p, clobs: pager.NewHeap(p, "clobs")}
	return &Engine{engbase.New[*view](p, s)}
}

// view is the read surface of the store at one commit epoch and its
// query path (engbase.View), read lock-free under a pin: the CLOB heap
// frozen, the rid slice copied at publish time, the side tables' views.
type view struct{ src shredplan.Source }

// Freeze implements engbase.Store: a CLOB heap view, a copy of the rid
// list and the side tables' views at epoch. The views flush the tail page
// of each heap the mutation appended to or patched.
func (s *store) Freeze(epoch uint64) (*view, error) {
	cv, err := s.clobs.View(epoch)
	if err != nil {
		return nil, err
	}
	db, err := s.db.View(epoch)
	if err != nil {
		return nil, err
	}
	rids := append([]pager.RID(nil), s.rids...)
	return &view{shredplan.Source{Layout: shredplan.Xcolumn, Class: s.class, DB: db, CLOBs: cv, RIDs: rids}}, nil
}

// Name implements core.Engine.
func (s *store) Name() string { return "Xcolumn" }

// Supports implements core.Engine: single-document classes exceed the
// CLOB size limit (blank cells in the paper's tables).
func (s *store) Supports(c core.Class, _ core.Size) error {
	if c.SingleDocument() {
		return fmt.Errorf("xcolumn: %s: single large document exceeds the XML CLOB limit: %w",
			c, core.ErrUnsupported)
	}
	return nil
}

// Reset implements engbase.Store.
func (s *store) Reset() error {
	s.rids = nil
	s.names = nil
	if err := s.clobs.Reset(); err != nil {
		return err
	}
	if s.db != nil {
		if err := s.db.Truncate(); err != nil {
			return err
		}
		s.db = nil
	}
	return nil
}

// LoadDocs implements engbase.Store: store each document as a CLOB and
// populate the side tables for the searchable elements.
func (s *store) LoadDocs(ctx context.Context, db *core.Database) (core.LoadStats, error) {
	var st core.LoadStats
	s.class = db.Class
	s.names = make(map[string]pager.RID, len(db.Docs))
	s.db = relational.NewDB(s.p)
	shredder.CreateSideTables(db.Class, s.db)
	err := engbase.ParseDocs(ctx, "xcolumn", db, func(d *core.Doc, rec *xmldom.Record) error {
		rid, err := s.clobs.Insert(d.Data)
		if err != nil {
			return err
		}
		s.rids = append(s.rids, rid)
		s.names[d.Name] = rid
		rows, err := shredder.InsertSideRows(s.db, s.class, strconv.FormatUint(uint64(rid), 10), rec)
		if err != nil {
			return err
		}
		// One CLOB sync per incoming file: per-document I/O dominates
		// DC/MD loading (paper §3.2.1).
		if err := s.clobs.Sync(); err != nil {
			return err
		}
		st.Documents++
		st.Rows += rows
		st.Bytes += len(d.Data)
		return nil
	})
	if err != nil {
		return st, err
	}
	if err := s.clobs.Sync(); err != nil {
		return st, err
	}
	for _, name := range s.db.TableNames() {
		if err := s.db.Table(name).Flush(); err != nil {
			return st, err
		}
	}
	return st, s.p.SyncAll()
}

// BuildIndexes implements engbase.Store: Table 3 indexes land on the
// side tables.
func (s *store) BuildIndexes(specs []core.IndexSpec) error {
	for _, spec := range specs {
		if table, col, ok := shredder.SideColumn(s.class, spec.Target); ok {
			if err := s.db.Table(table).CreateIndex(col); err != nil {
				return err
			}
		}
	}
	return nil
}

// Exec implements engbase.View: the operator tree of ph's query.
// Cancellation via ctx is honored at page-fetch granularity.
func (v *view) Exec(ctx context.Context, ph *plan.Physical, p core.Params) (core.Result, error) {
	return shredplan.Exec(ctx, v.src, ph, p)
}

// Class implements engbase.View.
func (v *view) Class() core.Class { return v.src.Class }

// Explain implements engbase.View: the operator tree Exec walks, drawn
// with ph's access path.
func (v *view) Explain(ph *plan.Physical) (*core.PlanNode, error) {
	return shredplan.Explain(shredplan.Xcolumn, v.src.Class, ph)
}

// Stats implements engbase.View: the CLOB heap drives scan cost (every
// unindexed query rereads the documents), and the side-table key indexes
// are the only probe paths.
func (v *view) Stats() plan.StatValues { return shredplan.StoreStats(v.src) }

var _ core.Explainer = (*Engine)(nil)

// The update hooks below apply U1-U3 inside the mutation bracket
// engbase.Base runs. Applying a replace or delete regenerates the side
// tables for the document — the dxx_seqno columns are renumbered from
// the new content — and tombstones the old CLOB, whose space the next
// CLOB that fits reuses.

// Exists implements engbase.Store.
func (s *store) Exists(name string) bool {
	_, ok := s.names[name]
	return ok
}

// ApplyInsert implements engbase.Store: it stores the CLOB and generates
// the side-table rows. Any well-formed document can be a CLOB; one with
// an unknown root gets no side-table rows.
func (s *store) ApplyInsert(_ context.Context, name string, data []byte, rec *xmldom.Record) error {
	rid, err := s.clobs.Insert(data)
	if err != nil {
		return err
	}
	s.rids = append(s.rids, rid)
	s.names[name] = rid
	_, err = shredder.InsertSideRows(s.db, s.class, strconv.FormatUint(uint64(rid), 10), rec)
	return err
}

// ApplyDelete implements engbase.Store: it removes the document's
// side-table rows (every side table carries a doc reference column) and
// tombstones its CLOB. Load writes no index on doc — the DAD declares
// none, and the stored size and the cold query paths stay what the
// paper's system had — so the first delete builds one per side table, and
// every later delete probes it instead of scanning the table.
func (s *store) ApplyDelete(ctx context.Context, name string) error {
	rid := s.names[name]
	ref := strconv.FormatUint(uint64(rid), 10)
	for _, tn := range s.db.TableNames() {
		t := s.db.Table(tn)
		if err := t.CreateIndex("doc"); err != nil {
			return err
		}
		if _, err := t.DeleteWhere(ctx, "doc", ref); err != nil {
			return err
		}
	}
	if err := s.clobs.Delete(ctx, rid); err != nil {
		return err
	}
	delete(s.names, name)
	// Copy-on-write: the previous slice may still back a published
	// snapshot view, so never shift it in place.
	rids := make([]pager.RID, 0, len(s.rids))
	for _, r := range s.rids {
		if r != rid {
			rids = append(rids, r)
		}
	}
	s.rids = rids
	return nil
}

var _ core.Engine = (*Engine)(nil)
