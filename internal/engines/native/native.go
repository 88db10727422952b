// Package native implements the X-Hive analog: a native XML store. Whole
// documents are persisted over the pager as binary DOM pages, a document
// catalog maps names to records, optional value indexes (paper Table 3)
// map element/attribute values to documents, and queries are XQuery
// evaluated directly on the stored DOM bytes through xmldom's record
// cursor — no shredding, no tree rebuilt per touched document, perfect
// structure and order preservation.
//
// The architecture reproduces X-Hive's measured behavior:
//
//   - No mapping work during load, so bulk loading is much faster than the
//     relational engines (paper Table 4).
//   - Document reconstruction and ordered access are exact (Tables 5/6).
//   - Queries without a usable index fetch and walk every document; on a
//     large single document (TC/SD, DC/SD Large) even indexed lookups must
//     fetch and walk the one huge document, reproducing X-Hive's poor
//     large-SD numbers.
//   - The document catalog itself lives on disk, so databases with very
//     many documents (DC/MD Large) pay a catalog scan per cold query —
//     the paper's "X-Hive suffers from accessing huge amounts of XML
//     documents in the DC/MD case".
//
// Storage is document-granular: each document is one persistent-DOM
// record, and a value index maps a value to the catalog record of the
// document holding it, so an indexed point query into one large document
// opens all of it. The paper's TC/SD cells behave as if X-Hive's index
// selection there was document-granular; the node-granular model that
// would explain its flat DC/SD Q8 cells, and raw XML re-parsed on every
// access, were measured against this store and are recorded results in
// EXPERIMENTS.md.
package native

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"strings"
	"sync"
	"time"

	"xbench/internal/btree"
	"xbench/internal/core"
	"xbench/internal/engines/engbase"
	"xbench/internal/metrics"
	"xbench/internal/pager"
	"xbench/internal/plan"
	"xbench/internal/xmldom"
	"xbench/internal/xquery"
)

// Engine is a native XML database instance: the shared engine lifecycle
// (engbase.Base: load, snapshot reads, updates, close) over
// the native store.
type Engine struct {
	*engbase.Base[*view]
	s *store
}

// store is the native layout; it implements engbase.Store, which states
// the locking each method runs under.
type store struct {
	p       *pager.Pager
	class   core.Class
	docs    *pager.Heap // one persistent-DOM record per document
	catalog *pager.Heap // catalog records in load order
	// names maps a document name to the RID of its catalog record, so an
	// update reaches its document without walking the catalog. Volatile,
	// like xcolumn's names and the shredding engine's docIDs: a load
	// fills it and updates (replayed ones included) maintain it.
	names   map[string]pager.RID
	indexes map[string]*btree.Tree
	// memo holds the records the newest frozen view has opened; dropped
	// are the document-heap RIDs ApplyDelete tombstoned since the last
	// Freeze, which drops them from it.
	memo    *recordMemo
	dropped []pager.RID
}

// view is the read surface of the store and its query path
// (engbase.View): heap and index views at one epoch — a commit epoch,
// which a query reads lock-free under its pin, or the writer's own, live —
// and what of the store no mutation changes.
type view struct {
	class   core.Class
	reg     *metrics.Registry
	docs    pager.HeapView
	catalog pager.HeapView
	indexes map[string]*btree.TreeView
	// memo is the store's record memo, which the view reads and fills
	// while epoch, its own, is the memo's; nil, which memoizes nothing,
	// on the writer's live view.
	memo  *recordMemo
	epoch uint64
}

// recordMemo holds the records frozen views have validated, by
// document-heap RID, so a record is opened once, not per query, and not
// again after a commit that left it alone (DESIGN.md §17, §18). There is
// one per store. Only the view of the newest publication — the memo's
// epoch — reads and fills it; a reader still pinned at an older view
// opens records from its own pages. Readers share them: a Record is
// immutable, and its bytes are a page image, never mutated in place
// (Pager.Read), or a fresh Get copy. The bytes at a RID change only
// after Delete tombstones it, so Freeze, moving the memo to the next
// epoch, drops the RIDs the mutation tombstoned and keeps the rest;
// ColdReset and Reset empty it. It admits records while their charges —
// data length plus node table — fit within limit, and evicts nothing.
type recordMemo struct {
	limit     int64
	hit, miss *metrics.Counter // native.memo.*: opens by a memo-reading view
	mu        sync.RWMutex
	epoch     uint64
	recs      map[pager.RID]memoEntry
	bytes     int64 // charged to recs
}

// memoEntry is a memoized record and the bytes it was opened from.
type memoEntry struct {
	rec  *xmldom.Record
	data []byte
}

// charge is what e counts against the memo's limit.
func (e memoEntry) charge() int64 { return int64(len(e.data) + recNodeBytes*e.rec.Len()) }

// recNodeBytes is one entry of a Record's node table: three int32s.
const recNodeBytes = 12

// bind takes the memo's counters from reg, the pager's registry at load
// time (a facade's WithMetrics replaces the one the engine was built
// with).
func (m *recordMemo) bind(reg *metrics.Registry) {
	m.hit, m.miss = reg.Counter("native.memo.hit"), reg.Counter("native.memo.miss")
}

// get returns the record memoized at rid for a view of epoch, or nil:
// none is there, or the view is not the newest.
func (m *recordMemo) get(rid pager.RID, epoch uint64) *xmldom.Record {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.epoch != epoch {
		return nil
	}
	return m.recs[rid].rec
}

// add memoizes rec, opened from data at rid by a view of epoch, if that
// is still the newest and the charge fits.
func (m *recordMemo) add(rid pager.RID, epoch uint64, rec *xmldom.Record, data []byte) {
	e := memoEntry{rec, data}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.recs[rid]; dup || m.epoch != epoch || m.bytes+e.charge() > m.limit {
		return
	}
	m.recs[rid] = e
	m.bytes += e.charge()
}

// advance moves the memo to epoch, dropping the records at dropped: the
// carry of one commit, whose cost is its write set, not the memo's size.
func (m *recordMemo) advance(epoch uint64, dropped []pager.RID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rid := range dropped {
		if e, ok := m.recs[rid]; ok {
			m.bytes -= e.charge()
			delete(m.recs, rid)
		}
	}
	m.epoch = epoch
}

// reset empties the memo.
func (m *recordMemo) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.recs)
	m.bytes = 0
}

// live is the writer's view of its own heaps as they are now, unflushed
// tails included, valid until its next Insert or Delete. It carries no
// indexes: the writer maintains those, it does not probe them. Nor a
// record memo: a record in its unflushed tail page lies in a buffer the
// writer keeps appending to.
func (s *store) live() *view {
	return &view{class: s.class, reg: s.p.Metrics(), docs: s.docs.Live(), catalog: s.catalog.Live()}
}

// Freeze implements engbase.Store: the live view with its heaps and the
// indexes frozen at epoch, reading the store's record memo, which moves
// to epoch without the records the mutation tombstoned. The heap views
// flush the tail page of a heap the mutation appended to or patched.
func (s *store) Freeze(epoch uint64) (*view, error) {
	s.memo.advance(epoch, s.dropped)
	s.dropped = s.dropped[:0]
	v := s.live()
	v.memo, v.epoch = s.memo, epoch
	var err error
	if v.docs, err = s.docs.View(epoch); err != nil {
		return nil, err
	}
	if v.catalog, err = s.catalog.View(epoch); err != nil {
		return nil, err
	}
	v.indexes = make(map[string]*btree.TreeView, len(s.indexes))
	for t, ix := range s.indexes {
		v.indexes[t] = ix.ViewAt(epoch)
	}
	return v, nil
}

// New returns an empty native engine with the given buffer pool size in
// pages (<= 0 selects the default), storing one persistent-DOM record
// per document.
func New(poolPages int) *Engine {
	if poolPages <= 0 {
		poolPages = pager.DefaultPoolPages
	}
	p := pager.New(poolPages)
	s := &store{
		p:       p,
		docs:    pager.NewHeap(p, "documents"),
		catalog: pager.NewHeap(p, "catalog"),
		names:   map[string]pager.RID{},
		indexes: map[string]*btree.Tree{},
		// Bounded by the pool's capacity in bytes, and dropped with the
		// pool: a cold query opens every record it touches from the pages.
		memo: &recordMemo{limit: int64(poolPages) * pager.PageSize, recs: map[pager.RID]memoEntry{}},
	}
	p.OnColdReset(s.memo.reset)
	return &Engine{Base: engbase.New[*view](p, s), s: s}
}

// CheckMemo reopens every record the store's memo holds from the pages of
// the published view and reports the first whose bytes differ, or that
// the view no longer holds: what the carry across commits must never
// leave behind. It is for tests and diagnosis; run it between commits.
func (e *Engine) CheckMemo(ctx context.Context) error {
	v, release, err := e.View()
	if err != nil {
		return err
	}
	defer release()
	v.memo.mu.RLock()
	recs := maps.Clone(v.memo.recs)
	epoch := v.memo.epoch
	v.memo.mu.RUnlock()
	if epoch != v.epoch {
		return fmt.Errorf("native: the memo is at epoch %d, the published view at %d", epoch, v.epoch)
	}
	for rid, en := range recs {
		data, err := v.docs.Get(ctx, rid)
		if err != nil {
			return fmt.Errorf("native: memoized rid %d: %w", rid, err)
		}
		if !bytes.Equal(data, en.data) {
			return fmt.Errorf("native: memoized rid %d holds %d bytes unlike the %d the view reads there", rid, len(en.data), len(data))
		}
	}
	return nil
}

// Name implements core.Engine.
func (s *store) Name() string { return "X-Hive" }

// Supports implements core.Engine: a native XML store hosts every class
// and size.
func (s *store) Supports(core.Class, core.Size) error { return nil }

// docEntry is one catalog record: a document name and the RID of the
// record holding the document.
type docEntry struct {
	name string
	rid  pager.RID
}

// catalogHeader opens every catalog record: a flag byte of 0 and a record
// count of 1, the bytes the store has always written for a document of one
// record.
var catalogHeader = []byte{0, 1}

func encodeCatalogEntry(en docEntry) []byte {
	buf := append(make([]byte, 0, len(catalogHeader)+binary.MaxVarintLen64+len(en.name)), catalogHeader...)
	buf = binary.AppendUvarint(buf, uint64(en.rid))
	return append(buf, en.name...)
}

// splitCatalogEntry checks a catalog record and returns its pieces: the
// document's RID and its name where it lies. The catalog scan compares
// names this way without decoding the entry.
func splitCatalogEntry(rec []byte) (rid pager.RID, name []byte, err error) {
	if !bytes.HasPrefix(rec, catalogHeader) {
		return 0, nil, fmt.Errorf("native: corrupt catalog record")
	}
	v, sz := binary.Uvarint(rec[len(catalogHeader):])
	if sz <= 0 {
		return 0, nil, fmt.Errorf("native: corrupt catalog rid")
	}
	return pager.RID(v), rec[len(catalogHeader)+sz:], nil
}

func decodeCatalogEntry(rec []byte) (docEntry, error) {
	rid, name, err := splitCatalogEntry(rec)
	return docEntry{name: string(name), rid: rid}, err
}

// Reset implements engbase.Store.
func (s *store) Reset() error {
	s.indexes = map[string]*btree.Tree{}
	s.names = map[string]pager.RID{}
	s.memo.reset()
	s.memo.bind(s.p.Metrics())
	s.dropped = s.dropped[:0]
	if err := s.docs.Reset(); err != nil {
		return err
	}
	return s.catalog.Reset()
}

// LoadDocs implements engbase.Store: parse (well-formedness check, as
// the paper does with validation off) and persist each document.
func (s *store) LoadDocs(ctx context.Context, db *core.Database) (core.LoadStats, error) {
	var st core.LoadStats
	s.class = db.Class
	err := engbase.ParseDocs(ctx, "native", db, func(d *core.Doc, rec *xmldom.Record) error {
		st.Nodes += rec.Len()
		if _, _, err := s.storeDocument(d.Name, rec); err != nil {
			return err
		}
		// Each document arrives as a separate file and is persisted
		// (synced) individually; the per-document I/O is what makes DC/MD
		// (very many files) the slowest class to load for every system in
		// Table 4.
		if err := s.docs.Sync(); err != nil {
			return err
		}
		st.Documents++
		st.Bytes += len(d.Data)
		return nil
	})
	if err != nil {
		return st, err
	}
	if err := s.docs.Sync(); err != nil {
		return st, err
	}
	return st, s.catalog.Sync()
}

// storeDocument writes one parsed document's persistent-DOM record and
// catalogs it under name. It returns the record's RID and the catalog
// record's, which is what the value indexes are keyed on.
func (s *store) storeDocument(name string, rec *xmldom.Record) (rid, cat pager.RID, err error) {
	if rid, err = s.docs.Insert(rec.Bytes()); err != nil {
		return 0, 0, err
	}
	if cat, err = s.catalog.Insert(encodeCatalogEntry(docEntry{name, rid})); err != nil {
		return 0, 0, err
	}
	s.names[name] = cat
	return rid, cat, nil
}

// openRecord fetches the document stored at rid from the view's document
// heap and opens it for the cursor, or hands out the one the memo holds
// for the view. The record is walked where Get found it — in the page
// image itself when it lies inside one page, which the cursor only reads.
func (v *view) openRecord(ctx context.Context, rid pager.RID) (*xmldom.Record, error) {
	// The writer's live view has no memo: see live.
	memoized := v.memo != nil
	if memoized {
		if rec := v.memo.get(rid, v.epoch); rec != nil {
			v.memo.hit.Inc()
			// A hit fetches no page, and a page fetch is where a query
			// checks ctx once per document.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return rec, nil
		}
	}
	data, err := v.docs.Get(ctx, rid)
	if err != nil {
		return nil, err
	}
	rec, err := xmldom.OpenRecord(data)
	if err != nil {
		return nil, err
	}
	if rec.Root().Kind() != xmldom.DocumentKind {
		return nil, fmt.Errorf("native: record %d is not a document", rid)
	}
	if memoized {
		v.memo.miss.Inc()
		v.memo.add(rid, v.epoch, rec, data)
	}
	return rec, nil
}

// indexEntries calls fn with every value the document in rec contributes
// to the value index on target (Table 3 notation: "hw", "article/@id"),
// walking the record in document order. The index stores each with the
// document's locator, its catalog record's RID: keying on that rather
// than the document's position lets a document be deleted or replaced
// without renumbering the locators of every document behind it.
func indexEntries(target string, rec *xmldom.Record, fn func(val string) error) error {
	elem, attr, byAttr := strings.Cut(target, "/@")
	if !rec.HasName(elem) {
		return nil
	}
	for o := int32(0); o < int32(rec.Len()); o++ {
		x := rec.At(o)
		if x.Kind() != xmldom.ElementKind || string(x.Name()) != elem {
			continue
		}
		val, ok := x.Text(), true
		if byAttr {
			val, ok = x.Attr(attr)
		}
		if !ok {
			continue
		}
		if err := fn(string(val)); err != nil {
			return err
		}
	}
	return nil
}

// BuildIndexes implements engbase.Store: value indexes mapping the
// target element/attribute value to the catalog RID of its document. It
// is the writer, so it reads its own heaps as they are now.
func (s *store) BuildIndexes(specs []core.IndexSpec) error {
	ctx := context.Background()
	v := s.live()
	for _, spec := range specs {
		if _, dup := s.indexes[spec.Target]; dup {
			continue
		}
		ix, err := btree.New(s.p, "idx:"+spec.Target)
		if err != nil {
			return err
		}
		var run []btree.Entry
		err = v.scanCatalog(ctx, func(cat, rid pager.RID, _ []byte) (bool, error) {
			rec, err := v.openRecord(ctx, rid)
			if err != nil {
				return false, err
			}
			return true, indexEntries(spec.Target, rec, func(val string) error {
				run = append(run, btree.Entry{Key: val, Val: uint64(cat)})
				return nil
			})
		})
		if err != nil {
			return err
		}
		btree.SortEntries(run)
		if err := ix.InsertRun(run); err != nil {
			return err
		}
		// Persist the tree header so the index survives crash recovery.
		if err := ix.Sync(); err != nil {
			return err
		}
		s.indexes[spec.Target] = ix
	}
	return nil
}

// scanCatalog walks the view's on-disk catalog in address order (load order
// until an update reuses a deleted entry's space), handing fn each
// record's RID with the document's RID and its name where it lies: fn
// compares the name in place and copies it only for a document it opens.
func (v *view) scanCatalog(ctx context.Context, fn func(cat, rid pager.RID, name []byte) (bool, error)) error {
	var inner error
	err := v.catalog.Scan(ctx, func(cat pager.RID, rec []byte) bool {
		rid, name, err := splitCatalogEntry(rec)
		if err != nil {
			inner = err
			return false
		}
		cont, err := fn(cat, rid, name)
		if err != nil {
			inner = err
			return false
		}
		return cont
	})
	if inner != nil {
		return inner
	}
	return err
}

// Exec implements engbase.View: evaluate the class's XQuery
// instantiation, using a value index to restrict the document set handed
// to the evaluator when the plan chose one. Cancellation via ctx is
// honored at page-fetch granularity while documents are fetched.
func (v *view) Exec(ctx context.Context, ph *plan.Physical, p core.Params) (core.Result, error) {
	def, reg := ph.Def, v.reg
	coll, err := v.buildCollection(ctx, ph, p)
	if err != nil {
		return core.Result{}, err
	}
	// The planner parsed the text to cost it; this is that parse.
	parseSpan := reg.StartSpan(metrics.PhaseParse)
	compiled, err := ph.Query, ph.ParseErr
	parseSpan.End()
	if err != nil {
		return core.Result{}, fmt.Errorf("native: %s/%s: %w", v.class, def.ID, err)
	}
	vars := make(map[string]xquery.Seq, len(p))
	for k, v := range p {
		vars[k] = xquery.Seq{v}
	}
	evalSpan := reg.StartSpan(metrics.PhaseEval)
	seq, err := compiled.EvalWithVars(coll, vars)
	evalSpan.End()
	if err != nil {
		return core.Result{}, fmt.Errorf("native: %s/%s: %w", v.class, def.ID, err)
	}
	// Serializing the answer is the one place a returned subtree is
	// materialized, as XML text straight from its record.
	matSpan := reg.StartSpan(metrics.PhaseMaterialize)
	items := xquery.SerializeSeq(seq)
	matSpan.End()
	return core.Result{Items: items, OrderGuaranteed: true}, nil
}

// Class implements engbase.View.
func (v *view) Class() core.Class { return v.class }

// Explain implements engbase.View: the tree Exec runs for ph.
func (v *view) Explain(ph *plan.Physical) (*core.PlanNode, error) { return tree(ph), nil }

// tree draws what Exec runs for ph: the evaluator over the documents of
// the catalog walk buildCollection takes for ph.Access. The evaluator
// does everything else the query asks for — filters, Q19's join, order
// by, aggregates, constructors, a positional [1] — so none of it is an
// operator of its own.
func tree(ph *plan.Physical) *core.PlanNode {
	access := &core.PlanNode{EstPages: ph.EstCost, EstRows: ph.EstRows}
	switch ph.Access {
	case plan.AccessDoc:
		access.Op, access.Target = "doc-lookup", "$DOC"
	case plan.AccessIndex:
		path := ph.IndexTarget
		if _, attr, ok := strings.Cut(path, "/@"); ok {
			path = "@" + attr
		}
		access.Op, access.Target, access.Detail = "index-probe", ph.IndexTarget, path+" = $"+ph.IndexParam
		if ph.IndexParam == "" {
			access.Detail = fmt.Sprintf("%s in [$%s..$%s]", path, ph.LoParam, ph.HiParam)
		}
		opens := "probed documents"
		if ph.Def.Class == core.DCMD {
			opens += ", flat documents"
		}
		access = &core.PlanNode{Op: "scan", Target: "catalog", Detail: opens, Children: []*core.PlanNode{access}}
	default:
		access.Op, access.Target, access.Detail = "scan", "collection", "sequential"
		if srcs := ph.Shape.Sources; len(srcs) > 0 && srcs[0].RootElem != "" {
			access.Target = srcs[0].RootElem
		}
	}
	return &core.PlanNode{Op: "evaluate", Children: []*core.PlanNode{access}}
}

// Stats implements engbase.View: document heap pages, catalog entry
// count and the heights of the value indexes.
func (v *view) Stats() plan.StatValues {
	st := plan.StatValues{
		DataPages: v.docs.Pages(),
		DataRows:  int64(v.DocumentCount()),
		Indexes:   make(map[string]int, len(v.indexes)),
	}
	for target, ix := range v.indexes {
		st.Indexes[target] = ix.Height()
	}
	return st
}

// DocumentCount returns the number of stored documents.
func (v *view) DocumentCount() int { return v.catalog.Count() }

var _ core.Explainer = (*Engine)(nil)

// buildCollection opens the documents the physical plan's access path
// selects — what tree draws under the evaluator: a single named document
// for doc()-based queries, an index-probed subset (equality or range), or
// the whole database for scans. The catalog is always read from disk
// (cold-run cost proportional to document count); a document is fetched,
// and its name copied, only when it is selected.
func (v *view) buildCollection(ctx context.Context, ph *plan.Physical, p core.Params) (*xquery.Collection, error) {
	reg, coll := v.reg, xquery.NewCollection()
	// A catalog walk is two phases: scan is the walk itself, materialize
	// the documents it opens on the way. addDoc times itself and the walk
	// records each phase once, scan as what is left, so the two partition
	// the walk's time instead of nesting.
	var opening time.Duration
	scan := func(fn func(cat, rid pager.RID, name []byte) (bool, error)) error {
		start := time.Now()
		err := v.scanCatalog(ctx, fn)
		reg.AddPhase(metrics.PhaseScan, time.Since(start)-opening)
		reg.AddPhase(metrics.PhaseMaterialize, opening)
		return err
	}
	addDoc := func(rid pager.RID, name []byte) error {
		start := time.Now()
		defer func() { opening += time.Since(start) }()
		doc, err := v.openRecord(ctx, rid)
		if err != nil {
			return err
		}
		coll.Add(string(name), doc)
		return nil
	}

	switch ph.Access {
	case plan.AccessDoc:
		// doc("...") queries need only the named document, but locating
		// it still walks the on-disk catalog; with no name bound there is
		// nothing to walk to.
		docName := p.Get("DOC")
		if docName == "" {
			return nil, fmt.Errorf("native: %s/%s: no document bound to $DOC", v.class, ph.Def.ID)
		}
		found := false
		err := scan(func(_, rid pager.RID, name []byte) (bool, error) {
			if string(name) == docName {
				found = true
				return false, addDoc(rid, name)
			}
			return true, nil
		})
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, fmt.Errorf("native: document %q not found", docName)
		}
		return coll, nil

	case plan.AccessIndex:
		ix, ok := v.indexes[ph.IndexTarget]
		if !ok {
			return nil, fmt.Errorf("native: no index on %s", ph.IndexTarget)
		}
		probeSpan := reg.StartSpan(metrics.PhaseIndexProbe)
		var (
			locs []uint64
			err  error
		)
		if ph.IndexParam != "" {
			locs, err = ix.Search(ctx, p.Get(ph.IndexParam))
		} else {
			// Range probe (date windows): the value index is ordered, so
			// the locators of every in-range value come from one range
			// traversal instead of a full scan.
			err = ix.Range(ctx, p.Get(ph.LoParam), p.Get(ph.HiParam), func(_ string, v uint64) bool {
				locs = append(locs, v)
				return true
			})
		}
		probeSpan.End()
		if err != nil {
			return nil, err
		}
		// A locator is a catalog RID, one per matching value: a document
		// holding two matches is still opened once.
		want := map[pager.RID]bool{}
		for _, l := range locs {
			want[pager.RID(l)] = true
		}
		// Some queries join against other documents (Q19 joins orders with
		// the flat customers document); always include the flat documents
		// of multi-document DC databases.
		return coll, scan(func(cat, rid pager.RID, name []byte) (bool, error) {
			if want[cat] || ph.Def.Class == core.DCMD && !bytes.HasPrefix(name, []byte("order")) {
				return true, addDoc(rid, name)
			}
			return true, nil
		})

	default:
		// Sequential scan: hand over everything.
		return coll, scan(func(_, rid pager.RID, name []byte) (bool, error) {
			return true, addDoc(rid, name)
		})
	}
}

var _ core.Engine = (*Engine)(nil)

// The update hooks below apply U1-U3, the update workload the paper
// lists as future work, inside the mutation bracket engbase.Base
// runs. Applying touches the document's own records only: its catalog
// entry and stored record are tombstoned in their heaps, its entries
// leave and enter each value index, and the new content is stored
// (reusing dead space when it fits).

// Exists implements engbase.Store.
func (s *store) Exists(name string) bool {
	_, ok := s.names[name]
	return ok
}

// ApplyInsert implements engbase.Store: it stores and catalogs the
// document and adds its values to every index (read back from the record
// just written, as a delete reads it).
func (s *store) ApplyInsert(ctx context.Context, name string, _ []byte, rec *xmldom.Record) error {
	rid, cat, err := s.storeDocument(name, rec)
	if err != nil {
		return err
	}
	return s.eachIndexEntry(ctx, cat, rid, (*btree.Tree).Insert)
}

// eachIndexEntry applies op (Insert or Delete) to every value index for
// every (value, locator) pair of the document stored at rid and cataloged
// at cat.
func (s *store) eachIndexEntry(ctx context.Context, cat, rid pager.RID, op func(*btree.Tree, string, uint64) error) error {
	if len(s.indexes) == 0 {
		return nil
	}
	rec, err := s.live().openRecord(ctx, rid)
	if err != nil {
		return err
	}
	for target, ix := range s.indexes {
		err := indexEntries(target, rec, func(val string) error { return op(ix, val, uint64(cat)) })
		if err != nil {
			return fmt.Errorf("native: index %s: %w", target, err)
		}
	}
	return nil
}

// ApplyDelete implements engbase.Store: it removes the named document
// where it lies — its values leave every index, its stored record and
// its catalog entry are tombstoned.
func (s *store) ApplyDelete(ctx context.Context, name string) error {
	cat := s.names[name]
	rec, err := s.catalog.Get(ctx, cat)
	if err != nil {
		return err
	}
	en, err := decodeCatalogEntry(rec)
	if err != nil {
		return err
	}
	if err := s.eachIndexEntry(ctx, cat, en.rid, (*btree.Tree).Delete); err != nil {
		return err
	}
	if err := s.docs.Delete(ctx, en.rid); err != nil {
		return err
	}
	s.dropped = append(s.dropped, en.rid)
	if err := s.catalog.Delete(ctx, cat); err != nil {
		return err
	}
	delete(s.names, name)
	return nil
}
