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
// Options.Segmented switches to node-granular storage: a document whose
// root has many children is stored as a header plus one record per
// top-level subtree, and value indexes carry (document, segment) locators
// so an indexed point query loads only the matching subtrees. This is the
// storage model that would explain the paper's flat DC/SD Q8 cells; it is
// off by default because the paper's TC/SD cells behave as if X-Hive's
// index selection there was document-granular (see EXPERIMENTS.md).
package native

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
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

// Format selects how documents are stored on disk.
type Format int

const (
	// FormatDOM stores documents as persistent binary DOM pages (the
	// X-Hive model: accessing a document pages in nodes, no re-parsing).
	// This is the default.
	FormatDOM Format = iota
	// FormatXML stores raw XML text, re-parsed on every access. Kept for
	// the storage-format ablation benchmark.
	FormatXML
)

// Options configure the native store.
type Options struct {
	// Format is the on-disk document representation.
	Format Format
	// Segmented enables node-granular storage and index locators (see the
	// package comment). Requires FormatDOM.
	Segmented bool
	// SegmentThreshold is the minimum number of root children before a
	// document is split into segments; 0 selects the default (32).
	SegmentThreshold int
}

const defaultSegmentThreshold = 32

// Engine is a native XML database instance: the shared engine lifecycle
// (engbase.Base: load, snapshot reads, journaled updates, close) over
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
	opts    Options
	docs    *pager.Heap // serialized documents/segments
	catalog *pager.Heap // catalog records in load order
	// names maps a document name to the RID of its catalog record, so an
	// update reaches its document without walking the catalog. Volatile,
	// like xcolumn's names and the shredding engine's docIDs: a load
	// fills it and updates (replayed ones included) maintain it.
	names   map[string]pager.RID
	indexes map[string]*btree.Tree
	// memo holds the records the newest frozen view has opened, nil on a
	// FormatXML or Segmented store; dropped are the document-heap RIDs
	// ApplyDelete tombstoned since the last Freeze, which drops them from
	// it.
	memo    *recordMemo
	dropped []pager.RID
}

// view is the read surface of the store and its query path
// (engbase.View): heap and index views at one epoch — a commit epoch,
// which a query reads lock-free under its pin, or the writer's own, live —
// and what of the store no mutation changes.
type view struct {
	class   core.Class
	opts    Options
	reg     *metrics.Registry
	docs    pager.HeapView
	catalog pager.HeapView
	indexes map[string]*btree.TreeView
	// memo is the store's record memo, which the view reads and fills
	// while epoch, its own, is the memo's; nil, which memoizes nothing,
	// on the writer's live view and on a FormatXML or Segmented store.
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
	if m != nil {
		m.hit, m.miss = reg.Counter("native.memo.hit"), reg.Counter("native.memo.miss")
	}
}

// get returns the record memoized at rid for a view of epoch, or nil:
// there is no memo, none is there, or the view is not the newest.
func (m *recordMemo) get(rid pager.RID, epoch uint64) *xmldom.Record {
	if m == nil {
		return nil
	}
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
	if m == nil {
		return
	}
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
	if m == nil {
		return
	}
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
	return &view{class: s.class, opts: s.opts, reg: s.p.Metrics(), docs: s.docs.Live(), catalog: s.catalog.Live()}
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
// pages (<= 0 selects the default), storing persistent DOM pages at
// document granularity.
func New(poolPages int) *Engine { return NewWithFormat(poolPages, FormatDOM) }

// NewWithFormat returns an engine with an explicit storage format.
func NewWithFormat(poolPages int, f Format) *Engine {
	e, err := NewWithOptions(poolPages, Options{Format: f})
	if err != nil {
		panic(err) // unreachable: no format/segment conflict possible here
	}
	return e
}

// NewWithOptions returns an engine with full storage options.
func NewWithOptions(poolPages int, opts Options) (*Engine, error) {
	if opts.Segmented && opts.Format != FormatDOM {
		return nil, fmt.Errorf("native: segmented storage requires FormatDOM")
	}
	if opts.SegmentThreshold <= 0 {
		opts.SegmentThreshold = defaultSegmentThreshold
	}
	if poolPages <= 0 {
		poolPages = pager.DefaultPoolPages
	}
	p := pager.New(poolPages)
	s := &store{
		p:       p,
		opts:    opts,
		docs:    pager.NewHeap(p, "documents"),
		catalog: pager.NewHeap(p, "catalog"),
		names:   map[string]pager.RID{},
		indexes: map[string]*btree.Tree{},
	}
	if opts.Format == FormatDOM && !opts.Segmented {
		// Bounded by the pool's capacity in bytes, and dropped with the
		// pool: a cold query opens every record it touches from the pages.
		s.memo = &recordMemo{limit: int64(poolPages) * pager.PageSize, recs: map[pager.RID]memoEntry{}}
		p.OnColdReset(s.memo.reset)
	}
	return &Engine{Base: engbase.New[*view](p, s), s: s}, nil
}

// CheckMemo reopens every record the store's memo holds from the pages of
// the published view and reports the first whose bytes differ, or that
// the view no longer holds: what the carry across commits must never
// leave behind. It is for tests and diagnosis; run it between commits.
func (e *Engine) CheckMemo(ctx context.Context) error {
	v, release, err := e.View()
	if err != nil || v.memo == nil {
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

// docEntry is one catalog record: a document name plus the record(s)
// holding its content. Unsegmented documents have exactly one rid;
// segmented documents have a header rid followed by one rid per top-level
// subtree.
type docEntry struct {
	name      string
	segmented bool
	rids      []pager.RID
}

func encodeCatalogEntry(en docEntry) []byte {
	buf := make([]byte, 0, 2+9*len(en.rids)+len(en.name))
	if en.segmented {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(en.rids)))
	for _, r := range en.rids {
		buf = binary.AppendUvarint(buf, uint64(r))
	}
	return append(buf, en.name...)
}

// splitCatalogEntry checks a catalog record and returns its pieces where
// they lie: the rid count, the rid varints and the document name. The
// catalog scan compares names this way without decoding the entry.
func splitCatalogEntry(rec []byte) (n int, rids, name []byte, err error) {
	if len(rec) < 2 {
		return 0, nil, nil, fmt.Errorf("native: catalog record too short")
	}
	cnt, sz := binary.Uvarint(rec[1:])
	if sz <= 0 || cnt == 0 || cnt > uint64(len(rec)) {
		return 0, nil, nil, fmt.Errorf("native: corrupt catalog record")
	}
	start := 1 + sz
	pos := start
	for i := uint64(0); i < cnt; i++ {
		_, sz := binary.Uvarint(rec[pos:])
		if sz <= 0 {
			return 0, nil, nil, fmt.Errorf("native: corrupt catalog rid")
		}
		pos += sz
	}
	return int(cnt), rec[start:pos], rec[pos:], nil
}

func decodeCatalogEntry(rec []byte) (docEntry, error) {
	n, rids, name, err := splitCatalogEntry(rec)
	if err != nil {
		return docEntry{}, err
	}
	en := docEntry{name: string(name), segmented: rec[0] == 1, rids: make([]pager.RID, n)}
	for i := range en.rids {
		v, sz := binary.Uvarint(rids)
		en.rids[i] = pager.RID(v)
		rids = rids[sz:]
	}
	return en, nil
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
	err := engbase.ParseDocs(ctx, "native", db, func(d *core.Doc, doc *xmldom.Node) error {
		st.Nodes += doc.CountNodes()
		if _, _, err := s.storeDocument(d.Name, doc, d.Data); err != nil {
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

// storeDocument writes one document according to the storage options and
// catalogs it under name. It returns the catalog record's RID and the
// entry it wrote: record i of the entry holds the whole document, or the
// header and then each top-level subtree, which is what the value indexes
// are keyed on.
func (s *store) storeDocument(name string, doc *xmldom.Node, raw []byte) (pager.RID, docEntry, error) {
	en := docEntry{name: name}
	root := doc.Root()
	if s.opts.Segmented && root != nil && len(root.Elements()) >= s.opts.SegmentThreshold {
		// Header: the root element stripped of children.
		header := &xmldom.Node{Kind: xmldom.ElementKind, Name: root.Name}
		header.Attrs = append([]xmldom.Attr(nil), root.Attrs...)
		en.segmented = true
		for _, part := range append([]*xmldom.Node{header}, root.Children...) {
			rid, err := s.docs.Insert(xmldom.EncodeBinary(part))
			if err != nil {
				return 0, en, err
			}
			en.rids = append(en.rids, rid)
		}
	} else {
		data := raw
		if s.opts.Format == FormatDOM {
			data = xmldom.EncodeBinary(doc)
		}
		rid, err := s.docs.Insert(data)
		if err != nil {
			return 0, en, err
		}
		en.rids = []pager.RID{rid}
	}
	cat, err := s.catalog.Insert(encodeCatalogEntry(en))
	if err != nil {
		return 0, en, err
	}
	s.names[name] = cat
	return cat, en, nil
}

// openRecord fetches one stored record from the view's document heap
// and opens it for the cursor, or hands out the one the memo holds for
// the view.
// A persistent-DOM record is walked where Get found it — in the page
// image itself when it lies inside one page, which the cursor only
// reads; raw XML (the storage-format ablation) is parsed and re-encoded
// first.
func (v *view) openRecord(ctx context.Context, rid pager.RID) (*xmldom.Record, error) {
	if rec := v.memo.get(rid, v.epoch); rec != nil {
		v.memo.hit.Inc()
		// A hit fetches no page, and a page fetch is where a query
		// checks ctx once per document.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return rec, nil
	}
	data, err := v.docs.Get(ctx, rid)
	if err != nil {
		return nil, err
	}
	if v.opts.Format == FormatDOM {
		rec, err := xmldom.OpenRecord(data)
		if err == nil && v.memo != nil {
			v.memo.miss.Inc()
			v.memo.add(rid, v.epoch, rec, data)
		}
		return rec, err
	}
	doc, err := xmldom.Parse(data)
	if err != nil {
		return nil, err
	}
	return xmldom.RecordOf(doc)
}

// openDoc opens a document for the evaluator, optionally restricted to a
// set of segments (1-based segment numbers; nil means all). Partial
// assembly is only valid for queries that select top-level subtrees by
// value — which is what the index locators guarantee. An unsegmented
// document is its one record; a segmented one is put together as a tree
// from its header and segments and encoded again.
func (v *view) openDoc(ctx context.Context, en docEntry, segs []int) (*xmldom.Record, error) {
	if !en.segmented {
		rec, err := v.openRecord(ctx, en.rids[0])
		if err != nil {
			return nil, err
		}
		if rec.Root().Kind() != xmldom.DocumentKind {
			return nil, fmt.Errorf("native: %s: stored record is not a document", en.name)
		}
		return rec, nil
	}
	if segs == nil {
		for i := 1; i < len(en.rids); i++ {
			segs = append(segs, i)
		}
	} else {
		// One locator arrives per matching value: a subtree holding two
		// matches must still be loaded once.
		slices.Sort(segs)
		segs = slices.Compact(segs)
		if segs[0] < 1 || segs[len(segs)-1] >= len(en.rids) {
			return nil, fmt.Errorf("native: %s: segment out of range", en.name)
		}
	}
	tree := func(rid pager.RID) (*xmldom.Node, error) {
		data, err := v.docs.Get(ctx, rid)
		if err != nil {
			return nil, err
		}
		return xmldom.DecodeBinary(data)
	}
	header, err := tree(en.rids[0])
	if err != nil {
		return nil, err
	}
	doc := xmldom.NewDocument()
	root := doc.Append(header)
	for _, seg := range segs {
		child, err := tree(en.rids[seg])
		if err != nil {
			return nil, err
		}
		root.Append(child)
	}
	return xmldom.RecordOf(doc)
}

// Index locators pack (catalog RID, segment) into the B+tree's uint64
// value: seg 0 means "whole document". Keying on the catalog record's RID
// rather than its position lets a document be deleted or replaced
// without renumbering the locators of every document behind it.
const locatorSegBits = 20

func makeLocator(cat pager.RID, seg int) uint64 {
	return uint64(cat)<<locatorSegBits | uint64(seg)
}

func splitLocator(loc uint64) (cat pager.RID, seg int) {
	return pager.RID(loc >> locatorSegBits), int(loc & (1<<locatorSegBits - 1))
}

// indexEntries calls fn with every (value, locator) pair the stored
// parts of the document cataloged at cat contribute to the value index
// on target (Table 3 notation: "hw", "article/@id"), walking each part's
// record in document order. For a segmented document part i is segment i,
// and a header hit (segment 0) forces a whole-document load.
func indexEntries(target string, cat pager.RID, parts []*xmldom.Record, fn func(val string, loc uint64) error) error {
	elem, attr, byAttr := strings.Cut(target, "/@")
	for seg, part := range parts {
		if !part.HasName(elem) {
			continue
		}
		for o := int32(0); o < int32(part.Len()); o++ {
			x := part.At(o)
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
			if err := fn(string(val), makeLocator(cat, seg)); err != nil {
				return err
			}
		}
	}
	return nil
}

// loadParts opens the stored records of one catalog entry.
func (v *view) loadParts(ctx context.Context, en docEntry) ([]*xmldom.Record, error) {
	parts := make([]*xmldom.Record, len(en.rids))
	for i, rid := range en.rids {
		part, err := v.openRecord(ctx, rid)
		if err != nil {
			return nil, err
		}
		parts[i] = part
	}
	return parts, nil
}

// BuildIndexes implements engbase.Store: value indexes mapping the
// target element/attribute value to a (document, segment) locator. It
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
		err = v.scanCatalog(ctx, func(cat pager.RID, _, rec []byte) (bool, error) {
			en, err := decodeCatalogEntry(rec)
			if err != nil {
				return false, err
			}
			parts, err := v.loadParts(ctx, en)
			if err != nil {
				return false, err
			}
			return true, indexEntries(spec.Target, cat, parts, func(val string, loc uint64) error {
				run = append(run, btree.Entry{Key: val, Val: loc})
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
// record with the document name found in it. Nothing is decoded: fn
// compares the name in place and decodes the entries it selects.
func (v *view) scanCatalog(ctx context.Context, fn func(cat pager.RID, name, rec []byte) (bool, error)) error {
	var inner error
	err := v.catalog.Scan(ctx, func(cat pager.RID, rec []byte) bool {
		_, _, name, err := splitCatalogEntry(rec)
		if err != nil {
			inner = err
			return false
		}
		cont, err := fn(cat, name, rec)
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

// Explain implements engbase.View: the evaluator runs the plan itself.
func (v *view) Explain(ph *plan.Physical) (*core.PlanNode, error) { return ph.Root, nil }

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
// selects: an index-probed subset (equality or range), a single named
// document for doc()-based queries, or the whole database for scans. The
// catalog is always read from disk (cold-run cost proportional to
// document count); an entry is decoded, and its records fetched, only
// for a selected document.
func (v *view) buildCollection(ctx context.Context, ph *plan.Physical, p core.Params) (*xquery.Collection, error) {
	reg, coll := v.reg, xquery.NewCollection()
	// A catalog walk is two phases: scan is the walk itself, materialize
	// the documents it opens on the way. addDoc times itself and the walk
	// records each phase once, scan as what is left, so the two partition
	// the walk's time instead of nesting.
	var opening time.Duration
	scan := func(fn func(cat pager.RID, name, rec []byte) (bool, error)) error {
		start := time.Now()
		err := v.scanCatalog(ctx, fn)
		reg.AddPhase(metrics.PhaseScan, time.Since(start)-opening)
		reg.AddPhase(metrics.PhaseMaterialize, opening)
		return err
	}
	addDoc := func(rec []byte, segs []int) error {
		start := time.Now()
		defer func() { opening += time.Since(start) }()
		en, err := decodeCatalogEntry(rec)
		if err != nil {
			return err
		}
		doc, err := v.openDoc(ctx, en, segs)
		if err != nil {
			return err
		}
		coll.Add(en.name, doc)
		return nil
	}

	// doc("...") queries need only the named document, but locating it
	// still walks the on-disk catalog.
	if docName := p.Get("DOC"); docName != "" && ph.Access == plan.AccessDoc {
		found := false
		err := scan(func(_ pager.RID, name, rec []byte) (bool, error) {
			if string(name) == docName {
				found = true
				return false, addDoc(rec, nil)
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
	}

	if ix, ok := v.indexes[ph.IndexTarget]; ok && ph.Access == plan.AccessIndex {
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
		// Group locators per document; a seg-0 locator demands the whole
		// document.
		wantSegs := map[pager.RID][]int{}
		wantAll := map[pager.RID]bool{}
		for _, l := range locs {
			cat, seg := splitLocator(l)
			if seg == 0 {
				wantAll[cat] = true
			} else {
				wantSegs[cat] = append(wantSegs[cat], seg)
			}
		}
		if ph.LoParam != "" {
			// Range probe: feed the observed selectivity (documents the
			// window kept / documents in the catalog) back to the cost
			// model for the next Plan call.
			ph.Observe(len(wantAll)+len(wantSegs), v.DocumentCount())
		}
		// Some queries join against other documents (Q19 joins orders with
		// the flat customers document); always include the flat documents
		// of multi-document DC databases.
		return coll, scan(func(cat pager.RID, name, rec []byte) (bool, error) {
			switch {
			case wantAll[cat]:
				return true, addDoc(rec, nil)
			case len(wantSegs[cat]) > 0:
				return true, addDoc(rec, wantSegs[cat])
			case v.class == core.DCMD && !bytes.HasPrefix(name, []byte("order")):
				return true, addDoc(rec, nil)
			}
			return true, nil
		})
	}

	// Sequential scan: hand over everything.
	return coll, scan(func(_ pager.RID, _, rec []byte) (bool, error) {
		return true, addDoc(rec, nil)
	})
}

var _ core.Engine = (*Engine)(nil)

// The update hooks below apply U1-U3, the update workload the paper
// lists as future work, inside the journal-first bracket engbase.Base
// runs. Applying touches the document's own records only: its catalog
// entry and stored records are tombstoned in their heaps, its entries
// leave and enter each value index, and the new content is stored
// (reusing dead space when it fits).

// Validate implements engbase.Store: any well-formed document is
// storable.
func (s *store) Validate(*xmldom.Node) error { return nil }

// Exists implements engbase.Store.
func (s *store) Exists(name string) bool {
	_, ok := s.names[name]
	return ok
}

// ApplyInsert implements engbase.Store: it stores and catalogs the
// document and adds its values to every index (read back from the records
// just written, as a delete reads them).
func (s *store) ApplyInsert(ctx context.Context, name string, raw []byte, parsed *xmldom.Node) error {
	cat, en, err := s.storeDocument(name, parsed, raw)
	if err != nil {
		return err
	}
	return s.eachIndexEntry(ctx, cat, en, (*btree.Tree).Insert)
}

// eachIndexEntry applies op (Insert or Delete) to every value index for
// every (value, locator) pair of the document cataloged at cat.
func (s *store) eachIndexEntry(ctx context.Context, cat pager.RID, en docEntry, op func(*btree.Tree, string, uint64) error) error {
	if len(s.indexes) == 0 {
		return nil
	}
	parts, err := s.live().loadParts(ctx, en)
	if err != nil {
		return err
	}
	for target, ix := range s.indexes {
		err := indexEntries(target, cat, parts, func(val string, loc uint64) error { return op(ix, val, loc) })
		if err != nil {
			return fmt.Errorf("native: index %s: %w", target, err)
		}
	}
	return nil
}

// ApplyDelete implements engbase.Store: it removes the named document
// where it lies — its values leave every index, its stored records and
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
	if err := s.eachIndexEntry(ctx, cat, en, (*btree.Tree).Delete); err != nil {
		return err
	}
	for _, rid := range en.rids {
		if err := s.docs.Delete(ctx, rid); err != nil {
			return err
		}
		s.dropped = append(s.dropped, rid)
	}
	if err := s.catalog.Delete(ctx, cat); err != nil {
		return err
	}
	delete(s.names, name)
	return nil
}
