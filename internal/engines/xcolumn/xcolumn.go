// Package xcolumn implements the DB2 XML Extender "XML column" analog:
// each document is kept intact as a CLOB, and side tables hold the
// searchable elements/attributes declared in the DAD, with a dxx_seqno
// column preserving the order of repeating elements (paper §3.1.1).
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
	"sort"
	"strconv"
	"sync"

	"xbench/internal/core"
	"xbench/internal/engines/engsnap"
	"xbench/internal/metrics"
	"xbench/internal/pager"
	"xbench/internal/plan"
	"xbench/internal/queries"
	"xbench/internal/relational"
	"xbench/internal/updatelog"
	"xbench/internal/xmldom"
	"xbench/internal/xquery"
)

// Engine is an Xcolumn instance. Execute is safe from many goroutines
// against a loaded database; Load, BuildIndexes and ColdReset take the
// write lock, excluding (and quiescing) queries.
type Engine struct {
	mu      sync.RWMutex
	p       *pager.Pager
	class   core.Class
	clobs   *pager.Heap
	rids    []pager.RID          // CLOB rids in load order
	names   map[string]pager.RID // document name -> CLOB rid
	db      *relational.DB
	journal *updatelog.Log    // logical redo journal for U1-U3
	snap    engsnap.Published // MVCC snapshot state for lock-free reads
	planFB  plan.Feedback     // observed range selectivities for the cost model
}

// New returns an empty engine.
func New(poolPages int) *Engine {
	p := pager.New(poolPages)
	p.SetMetrics(metrics.NewRegistry())
	e := &Engine{p: p, clobs: pager.NewHeap(p, "clobs"), journal: updatelog.New(p, "updates")}
	e.snap.SetEnabled(true)
	p.StartGC(engsnap.GCInterval)
	return e
}

// clobReader is the read surface shared by the live CLOB heap and a
// frozen pager.HeapView.
type clobReader interface {
	Get(ctx context.Context, rid pager.RID) ([]byte, error)
	Pages() int64
}

// view is the read surface of the store at one moment: either the live
// heap, rid list and tables (caller holds the read latch) or frozen
// snapshot views pinned at a commit epoch (lock-free — the rid slice is
// copied at publish time and the DB is a snapshot clone).
type view struct {
	class core.Class
	clobs clobReader
	rids  []pager.RID
	db    *relational.DB
}

// liveView wraps the live store. Caller holds at least the read latch.
func (e *Engine) liveView() *view {
	return &view{class: e.class, clobs: e.clobs, rids: e.rids, db: e.db}
}

// publishLocked freezes the store at epoch and publishes it for
// snapshot readers. The caller holds the write lock and has synced the
// heaps, so the views freeze without flushing anything.
func (e *Engine) publishLocked(epoch uint64) error {
	if e.db == nil {
		e.snap.Publish(epoch, nil)
		return nil
	}
	cv, err := e.clobs.View(epoch)
	if err != nil {
		e.snap.Publish(epoch, nil)
		return err
	}
	dbSnap, err := e.db.Snapshot(epoch)
	if err != nil {
		e.snap.Publish(epoch, nil)
		return err
	}
	rids := append([]pager.RID(nil), e.rids...)
	e.snap.Publish(epoch, &view{class: e.class, clobs: cv, rids: rids, db: dbSnap})
	return nil
}

// SetSnapshots toggles MVCC snapshot reads (default on). Disabled,
// Execute falls back to the engine read latch and quiesces behind
// writers — the pre-MVCC baseline the update-fraction sweep compares
// against.
func (e *Engine) SetSnapshots(on bool) { e.snap.SetEnabled(on) }

// SnapshotsEnabled reports whether snapshot reads are on.
func (e *Engine) SnapshotsEnabled() bool { return e.snap.Enabled() }

// Name implements core.Engine.
func (e *Engine) Name() string { return "Xcolumn" }

// Supports implements core.Engine: single-document classes exceed the
// CLOB size limit (blank cells in the paper's tables).
func (e *Engine) Supports(c core.Class, _ core.Size) error {
	if c.SingleDocument() {
		return fmt.Errorf("xcolumn: %s: single large document exceeds the XML CLOB limit: %w",
			c, core.ErrUnsupported)
	}
	return nil
}

// Pager exposes the engine's pager for fault injection and recovery.
func (e *Engine) Pager() *pager.Pager { return e.p }

// Metrics returns the engine's metrics registry, shared by its pager,
// side-table indexes and query path.
func (e *Engine) Metrics() *metrics.Registry { return e.p.Metrics() }

// reset empties the store so Load is idempotent. The published snapshot
// is withdrawn first so readers fall back to the locked path rather
// than chase views into truncated files.
func (e *Engine) reset() error {
	e.snap.Publish(e.p.SnapshotEpoch(), nil)
	e.rids = nil
	e.names = nil
	if err := e.clobs.Reset(); err != nil {
		return err
	}
	if err := e.journal.Reset(); err != nil {
		return err
	}
	if e.db != nil {
		if err := e.db.Truncate(); err != nil {
			return err
		}
		e.db = nil
	}
	return nil
}

// abortLoad truncates the store after a non-crash mid-load failure so the
// database stays empty and loadable; after a crash the error passes
// through untouched (pager recovery is the only path forward).
func (e *Engine) abortLoad(err error) error {
	if pager.IsCrash(err) {
		return err
	}
	_ = e.reset()
	return err
}

// Load implements core.Engine: store each document as a CLOB and populate
// the side tables for the searchable elements. A failed load leaves an
// empty, loadable database.
// Load drains pinned snapshots before truncating: a reader holding a
// pre-load snapshot would otherwise race the wholesale truncate, whose
// pre-images are deliberately not versioned.
func (e *Engine) Load(ctx context.Context, db *core.Database) (core.LoadStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var st core.LoadStats
	if err := e.Supports(db.Class, db.Size); err != nil {
		return st, err
	}
	e.p.BlockPins()
	defer e.p.UnblockPins()
	if err := e.reset(); err != nil {
		return st, err
	}
	st, err := e.loadDocs(ctx, db)
	if err != nil {
		return st, e.abortLoad(err)
	}
	if err := e.publishLocked(e.p.AdvanceEpoch()); err != nil {
		return st, e.abortLoad(err)
	}
	return st, nil
}

func (e *Engine) loadDocs(ctx context.Context, db *core.Database) (core.LoadStats, error) {
	var st core.LoadStats
	start := e.p.Stats()
	e.class = db.Class
	e.names = make(map[string]pager.RID, len(db.Docs))
	e.db = relational.NewDB(e.p)
	switch db.Class {
	case core.DCMD:
		e.db.Create("order_side", "doc", "id", "order_date", "ship_type",
			"order_status", "ship_country")
		e.db.Create("line_side", "doc", "dxx_seqno", "item_id", "comment")
		e.db.Create("customer_side", "doc", "dxx_seqno", "id", "c_fname",
			"c_lname", "c_phone")
	case core.TCMD:
		e.db.Create("article_side", "doc", "id", "title", "genre", "date")
		e.db.Create("sec_side", "doc", "dxx_seqno", "heading", "top")
	}
	for _, d := range db.Docs {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		doc, err := xmldom.Parse(d.Data)
		if err != nil {
			return st, fmt.Errorf("xcolumn: %s: %w", d.Name, err)
		}
		rid, err := e.clobs.Insert(d.Data)
		if err != nil {
			return st, err
		}
		e.rids = append(e.rids, rid)
		e.names[d.Name] = rid
		rows, err := e.populateSideTables(strconv.FormatUint(uint64(rid), 10), doc)
		if err != nil {
			return st, err
		}
		// One CLOB sync per incoming file: per-document I/O dominates
		// DC/MD loading (paper §3.2.1).
		if err := e.clobs.Sync(); err != nil {
			return st, err
		}
		st.Documents++
		st.Rows += rows
		st.Bytes += len(d.Data)
	}
	if err := e.clobs.Sync(); err != nil {
		return st, err
	}
	for _, name := range e.db.TableNames() {
		if err := e.db.Table(name).Flush(); err != nil {
			return st, err
		}
	}
	if err := e.p.SyncAll(); err != nil {
		return st, err
	}
	st.PageIO = e.p.Stats().IO() - start.IO()
	return st, nil
}

func (e *Engine) populateSideTables(doc string, parsed *xmldom.Node) (int, error) {
	rows := 0
	ins := func(table string, row relational.Row) error {
		rows++
		return e.db.Table(table).Insert(row)
	}
	root := parsed.Root()
	null := relational.Null
	opt := func(n *xmldom.Node, name string) string {
		if c := n.FirstChild(name); c != nil {
			return c.Text()
		}
		return null
	}
	switch e.class {
	case core.DCMD:
		switch root.Name {
		case "order":
			id, _ := root.Attr("id")
			sc := null
			if cc := root.FirstChild("cc_xacts"); cc != nil {
				sc = opt(cc, "ship_country")
			}
			if err := ins("order_side", relational.Row{
				doc, id, opt(root, "order_date"), opt(root, "ship_type"),
				opt(root, "order_status"), sc,
			}); err != nil {
				return rows, err
			}
			for i, ol := range root.FirstChild("order_lines").ChildElements("order_line") {
				if err := ins("line_side", relational.Row{
					doc, strconv.Itoa(i + 1), opt(ol, "item_id"), opt(ol, "comment"),
				}); err != nil {
					return rows, err
				}
			}
		case "customers":
			for i, c := range root.ChildElements("customer") {
				id, _ := c.Attr("id")
				if err := ins("customer_side", relational.Row{
					doc, strconv.Itoa(i + 1), id, opt(c, "c_fname"),
					opt(c, "c_lname"), opt(c, "c_phone"),
				}); err != nil {
					return rows, err
				}
			}
		}
	case core.TCMD:
		if root.Name != "article" {
			return rows, nil
		}
		id, _ := root.Attr("id")
		prolog := root.FirstChild("prolog")
		date := null
		if dl := prolog.FirstChild("dateline"); dl != nil {
			date = opt(dl, "date")
		}
		if err := ins("article_side", relational.Row{
			doc, id, opt(prolog, "title"), opt(prolog, "genre"), date,
		}); err != nil {
			return rows, err
		}
		seq := 0
		var walk func(sec *xmldom.Node, top bool) error
		walk = func(sec *xmldom.Node, top bool) error {
			seq++
			topFlag := "0"
			if top {
				topFlag = "1"
			}
			if err := ins("sec_side", relational.Row{
				doc, strconv.Itoa(seq), opt(sec, "heading"), topFlag,
			}); err != nil {
				return err
			}
			for _, sub := range sec.ChildElements("sec") {
				if err := walk(sub, false); err != nil {
					return err
				}
			}
			return nil
		}
		for _, sec := range root.FirstChild("body").ChildElements("sec") {
			if err := walk(sec, true); err != nil {
				return rows, err
			}
		}
	}
	return rows, nil
}

// BuildIndexes implements core.Engine: Table 3 indexes land on the side
// tables.
func (e *Engine) BuildIndexes(specs []core.IndexSpec) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.db == nil {
		return fmt.Errorf("xcolumn: BuildIndexes before Load")
	}
	e.p.BeginMutation()
	for _, spec := range specs {
		switch {
		case e.class == core.DCMD && spec.Target == "order/@id":
			if err := e.db.Table("order_side").CreateIndex("id"); err != nil {
				return err
			}
		case e.class == core.TCMD && spec.Target == "article/@id":
			if err := e.db.Table("article_side").CreateIndex("id"); err != nil {
				return err
			}
		}
	}
	if err := e.p.SyncAll(); err != nil {
		return err
	}
	return e.publishLocked(e.p.EndMutation())
}

// fetchDoc reads and parses the CLOB referenced by a side-table doc value.
func (e *Engine) fetchDoc(ctx context.Context, v *view, doc string) (*xmldom.Node, error) {
	rid, err := strconv.ParseUint(doc, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("xcolumn: bad doc reference %q", doc)
	}
	sp := e.Metrics().StartSpan(metrics.PhaseMaterialize)
	defer sp.End()
	data, err := v.clobs.Get(ctx, pager.RID(rid))
	if err != nil {
		return nil, err
	}
	return xmldom.Parse(data)
}

// Execute implements core.Engine. It is safe to call from many
// goroutines; cancellation via ctx is honored at page-fetch granularity.
// With snapshots on (the default), a query pins a commit epoch and runs
// against frozen heap, rid-list and side-table views without touching
// the engine write lock, so U1-U3 updates never stall it.
func (e *Engine) Execute(ctx context.Context, q core.QueryID, p core.Params) (core.Result, error) {
	if snap, val, ok := e.snap.Pin(e.p); ok {
		defer snap.Release()
		return e.run(ctx, val.(*view), q, p)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.db == nil {
		return core.Result{}, fmt.Errorf("xcolumn: Execute before Load")
	}
	return e.run(ctx, e.liveView(), q, p)
}

// run executes q against v, which is either the live store (caller
// holds the read latch) or a pinned snapshot view (lock-free).
func (e *Engine) run(ctx context.Context, v *view, q core.QueryID, p core.Params) (core.Result, error) {
	def := queries.Lookup(v.class, q)
	if def == nil {
		return core.Result{}, core.ErrNoQuery
	}
	ph, err := plan.Plan(def, e.statValues(v))
	if err != nil {
		return core.Result{}, err
	}
	a := access{ph: ph, fb: &e.planFB}
	before := e.p.Stats()
	var items []string
	switch v.class {
	case core.DCMD:
		items, err = e.execDCMD(ctx, v, a, q, p)
	case core.TCMD:
		items, err = e.execTCMD(ctx, v, a, q, p)
	}
	if err != nil {
		return core.Result{}, err
	}
	return core.Result{
		Items: items,
		// dxx_seqno and the intact CLOB preserve document order (§3.2.2:
		// "DB2/Xcolumn can keep track of ordering information by using
		// dxx_seqno").
		OrderGuaranteed: true,
		PageIO:          e.p.Stats().IO() - before.IO(),
	}, nil
}

// statValues derives planner statistics from v: the CLOB heap drives
// scan cost (every unindexed query rereads the documents), and the
// side-table key indexes are the only probe paths.
func (e *Engine) statValues(v *view) plan.StatValues {
	st := plan.StatValues{
		DataPages: v.clobs.Pages(),
		DataRows:  int64(len(v.rids)),
		Indexes:   map[string]int{},
	}
	for _, spec := range queries.Indexes(v.class) {
		var table string
		switch {
		case v.class == core.DCMD && spec.Target == "order/@id":
			table = "order_side"
		case v.class == core.TCMD && spec.Target == "article/@id":
			table = "article_side"
		default:
			continue
		}
		if h := v.db.Table(table).IndexHeight("id"); h > 0 {
			st.Indexes[spec.Target] = h
		}
	}
	st.RangeSelectivity = e.planFB.Selectivity()
	return st
}

// Explain implements core.Explainer: the costed physical plan for q
// over the loaded database's live statistics.
func (e *Engine) Explain(_ context.Context, q core.QueryID, _ core.Params) (*core.PlanNode, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.db == nil {
		return nil, fmt.Errorf("xcolumn: Explain before Load")
	}
	def := queries.Lookup(e.class, q)
	if def == nil {
		return nil, core.ErrNoQuery
	}
	ph, err := plan.Plan(def, e.statValues(e.liveView()))
	if err != nil {
		return nil, err
	}
	return ph.Root, nil
}

var _ core.Explainer = (*Engine)(nil)

// access carries the physical plan's index-vs-scan decision into the
// side-table fetches below.
type access struct {
	ph *plan.Physical
	// fb receives observed range selectivities for the cost model.
	fb *plan.Feedback
}

func (a access) forceScan() bool {
	return a.ph != nil && a.ph.Access == plan.AccessScan
}

func (a access) eq(ctx context.Context, t *relational.Table, col, val string) ([]relational.Row, error) {
	if a.forceScan() {
		return t.ScanEq(ctx, col, val)
	}
	return t.LookupEq(ctx, col, val)
}

func (a access) rng(ctx context.Context, t *relational.Table, col, lo, hi string) ([]relational.Row, error) {
	var (
		rows []relational.Row
		err  error
	)
	if a.forceScan() {
		rows, err = t.ScanRange(ctx, col, lo, hi)
	} else {
		rows, err = t.LookupRange(ctx, col, lo, hi)
	}
	if err == nil && a.ph != nil && a.fb != nil {
		a.fb.Observe(a.ph.FeedbackTarget, int64(len(rows)), int64(t.Count()))
	}
	return rows, err
}

// docOf finds the CLOB reference for a key via the side table (indexed
// when Table 3 covers it, a forced scan when the plan rejects the
// probe).
func (e *Engine) docOf(ctx context.Context, v *view, a access, table, col, key string) (string, relational.Row, error) {
	t := v.db.Table(table)
	rows, err := a.eq(ctx, t, col, key)
	if err != nil || len(rows) == 0 {
		return "", nil, err
	}
	return rows[0][t.Col("doc")], rows[0], nil
}

func (e *Engine) execDCMD(ctx context.Context, v *view, a access, q core.QueryID, p core.Params) ([]string, error) {
	orderSide := v.db.Table("order_side")
	switch q {
	case core.Q1, core.Q5, core.Q8, core.Q9, core.Q12, core.Q16:
		doc, _, err := e.docOf(ctx, v, a, "order_side", "id", p.Get("X"))
		if err != nil || doc == "" {
			return nil, err
		}
		parsed, err := e.fetchDoc(ctx, v, doc)
		if err != nil {
			return nil, err
		}
		root := parsed.Root()
		switch q {
		case core.Q1:
			return []string{root.FirstChild("total").XML()}, nil
		case core.Q5:
			lines := root.FirstChild("order_lines").ChildElements("order_line")
			if len(lines) == 0 {
				return nil, nil
			}
			return []string{lines[0].XML()}, nil
		case core.Q8:
			var out []string
			for _, ol := range root.FirstChild("order_lines").ChildElements("order_line") {
				out = append(out, ol.FirstChild("item_id").XML())
			}
			return out, nil
		case core.Q9:
			return []string{root.FirstChild("order_status").XML()}, nil
		case core.Q12:
			return []string{root.FirstChild("cc_xacts").XML()}, nil
		case core.Q16:
			return []string{root.XML()}, nil
		}
	case core.Q10:
		rows, err := a.rng(ctx, orderSide, "order_date", p.Get("LO"), p.Get("HI"))
		if err != nil {
			return nil, err
		}
		sortByIDSuffix(rows, orderSide.Col("id"))
		relational.SortRows(rows, orderSide.Col("ship_type"), false, true)
		var out []string
		for _, r := range rows {
			n := xmldom.NewElement("r")
			n.AddLeaf("id", r[orderSide.Col("id")])
			n.AddLeaf("date", r[orderSide.Col("order_date")])
			n.AddLeaf("ship", r[orderSide.Col("ship_type")])
			out = append(out, n.XML())
		}
		return out, nil
	case core.Q14:
		rows, err := a.rng(ctx, orderSide, "order_date", p.Get("LO"), p.Get("HI"))
		if err != nil {
			return nil, err
		}
		var out []string
		for _, r := range rows {
			if relational.IsNull(r[orderSide.Col("ship_country")]) {
				out = append(out, r[orderSide.Col("id")])
			}
		}
		return out, nil
	case core.Q17:
		// No full-text side table: scan every CLOB (the Table 7 blow-up).
		return e.clobWordSearch(ctx, v, p.Get("W2"), func(root *xmldom.Node) (string, bool) {
			if root.Name != "order" {
				return "", false
			}
			id, _ := root.Attr("id")
			for _, ol := range root.FirstChild("order_lines").ChildElements("order_line") {
				if c := ol.FirstChild("comment"); c != nil && xquery.ContainsWord(c.Text(), p.Get("W2")) {
					return id, true
				}
			}
			return "", false
		})
	case core.Q19:
		doc, orow, err := e.docOf(ctx, v, a, "order_side", "id", p.Get("X"))
		if err != nil || doc == "" {
			return nil, err
		}
		parsed, err := e.fetchDoc(ctx, v, doc)
		if err != nil {
			return nil, err
		}
		custID := parsed.Root().FirstChild("customer_id").Text()
		custSide := v.db.Table("customer_side")
		var out []string
		if err := custSide.Scan(ctx, func(r relational.Row) bool {
			if r[custSide.Col("id")] == custID {
				n := xmldom.NewElement("r")
				n.AddLeaf("name", r[custSide.Col("c_fname")]+" "+r[custSide.Col("c_lname")])
				n.AddLeaf("phone", r[custSide.Col("c_phone")])
				st := orow[orderSide.Col("order_status")]
				if relational.IsNull(st) {
					st = ""
				}
				n.AddLeaf("status", st)
				out = append(out, n.XML())
				return false
			}
			return true
		}); err != nil {
			return nil, err
		}
		return out, nil
	}
	return nil, core.ErrNoQuery
}

func (e *Engine) execTCMD(ctx context.Context, v *view, a access, q core.QueryID, p core.Params) ([]string, error) {
	artSide := v.db.Table("article_side")
	secSide := v.db.Table("sec_side")
	switch q {
	case core.Q1:
		rows, err := a.eq(ctx, artSide, "id", p.Get("X"))
		if err != nil {
			return nil, err
		}
		var out []string
		for _, r := range rows {
			n := xmldom.NewElement("title")
			n.AddText(r[artSide.Col("title")])
			out = append(out, n.XML())
		}
		return out, nil
	case core.Q5, core.Q8:
		doc, _, err := e.docOf(ctx, v, a, "article_side", "id", p.Get("X"))
		if err != nil || doc == "" {
			return nil, err
		}
		// The DAD gives sec_side no doc index, so filtering it is a growing
		// scan (the index the update path builds on first delete is not
		// part of the modeled system and the query does not use it).
		type secRow struct {
			seq     int
			heading string
			top     bool
		}
		var secs []secRow
		if err := secSide.Scan(ctx, func(r relational.Row) bool {
			if r[secSide.Col("doc")] == doc {
				seq, _ := strconv.Atoi(r[secSide.Col("dxx_seqno")])
				secs = append(secs, secRow{
					seq:     seq,
					heading: r[secSide.Col("heading")],
					top:     r[secSide.Col("top")] == "1",
				})
			}
			return true
		}); err != nil {
			return nil, err
		}
		var out []string
		for _, s := range secs {
			if !s.top {
				continue
			}
			if q == core.Q5 {
				// First top-level section only; no result if it lacks a
				// heading (matching sec[1]/heading semantics).
				if relational.IsNull(s.heading) {
					return nil, nil
				}
				n := xmldom.NewElement("heading")
				n.AddText(s.heading)
				return []string{n.XML()}, nil
			}
			if relational.IsNull(s.heading) {
				continue
			}
			n := xmldom.NewElement("heading")
			n.AddText(s.heading)
			out = append(out, n.XML())
		}
		return out, nil
	case core.Q12:
		doc, _, err := e.docOf(ctx, v, a, "article_side", "id", p.Get("X"))
		if err != nil || doc == "" {
			return nil, err
		}
		parsed, err := e.fetchDoc(ctx, v, doc)
		if err != nil {
			return nil, err
		}
		ab := parsed.Root().FirstChild("prolog").FirstChild("abstract")
		if ab == nil {
			return nil, nil
		}
		return []string{ab.XML()}, nil
	case core.Q14:
		rows, err := a.rng(ctx, artSide, "date", p.Get("LO"), p.Get("HI"))
		if err != nil {
			return nil, err
		}
		var out []string
		for _, r := range rows {
			if relational.IsNull(r[artSide.Col("genre")]) {
				n := xmldom.NewElement("title")
				n.AddText(r[artSide.Col("title")])
				out = append(out, n.XML())
			}
		}
		return out, nil
	case core.Q17:
		return e.clobWordSearch(ctx, v, p.Get("W2"), func(root *xmldom.Node) (string, bool) {
			if root.Name != "article" {
				return "", false
			}
			if xquery.ContainsWord(root.Text(), p.Get("W2")) {
				return root.FirstChild("prolog").FirstChild("title").XML(), true
			}
			return "", false
		})
	}
	return nil, core.ErrNoQuery
}

// sortByIDSuffix stably orders rows by the numeric suffix of an id column
// ("O25" -> 25), the document order of generated ids.
func sortByIDSuffix(rows []relational.Row, col int) {
	sort.SliceStable(rows, func(i, j int) bool {
		return idSuffix(rows[i][col]) < idSuffix(rows[j][col])
	})
}

func idSuffix(id string) int {
	i := 0
	for i < len(id) && (id[i] < '0' || id[i] > '9') {
		i++
	}
	n, _ := strconv.Atoi(id[i:])
	return n
}

// clobWordSearch scans every stored CLOB: a cheap raw-byte prefilter, then
// a full parse of candidate documents to extract the result.
func (e *Engine) clobWordSearch(ctx context.Context, v *view, word string, extract func(root *xmldom.Node) (string, bool)) ([]string, error) {
	reg := e.Metrics()
	defer reg.StartSpan(metrics.PhaseScan).End()
	var out []string
	for _, rid := range v.rids {
		data, err := v.clobs.Get(ctx, rid)
		if err != nil {
			return nil, err
		}
		if !xquery.ContainsWord(string(data), word) {
			continue
		}
		parseSpan := reg.StartSpan(metrics.PhaseParse)
		parsed, err := xmldom.Parse(data)
		parseSpan.End()
		if err != nil {
			return nil, err
		}
		if item, ok := extract(parsed.Root()); ok {
			out = append(out, item)
		}
	}
	return out, nil
}

// ColdReset implements core.Engine. It quiesces: in-flight queries
// finish before the pool is dropped, and queries submitted during the
// reset wait for it.
func (e *Engine) ColdReset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.p.ColdReset()
}

// PageIO implements core.Engine. Lock-free: safe concurrently with
// Execute.
func (e *Engine) PageIO() int64 { return e.p.Stats().IO() }

// Close implements core.Engine: dirty pages are flushed best-effort and
// the pager's file handles and pool are released. Double-Close is safe.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.snap.Publish(e.p.SnapshotEpoch(), nil)
	e.db = nil
	e.names = nil
	e.rids = nil
	return e.p.Close()
}

// The update workload (U1-U3) below follows the journal-first protocol:
// validate, journal + sync (the commit point), then apply. Applying a
// replace or delete regenerates the side tables for the document — the
// dxx_seqno columns are renumbered from the new content — and tombstones
// the old CLOB, whose space the next CLOB that fits reuses. After a
// crash, RecoverUpdates reloads and re-applies the committed journal.

// InsertDocument implements core.Engine (U1: CLOB row + side-table rows).
func (e *Engine) InsertDocument(ctx context.Context, name string, data []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	if e.db == nil {
		return fmt.Errorf("xcolumn: InsertDocument before Load")
	}
	parsed, err := xmldom.Parse(data)
	if err != nil {
		return fmt.Errorf("xcolumn: insert %s: %w", name, err)
	}
	if _, exists := e.names[name]; exists {
		return fmt.Errorf("xcolumn: insert %s: document already exists", name)
	}
	e.p.BeginMutation()
	if err := e.journal.Append(updatelog.Record{Kind: updatelog.KindInsert, Name: name, Data: data}); err != nil {
		return err
	}
	if err := e.applyInsert(name, data, parsed); err != nil {
		return err
	}
	return e.publishLocked(e.p.EndMutation())
}

// ReplaceDocument implements core.Engine (U2: upsert; side-table rows are
// regenerated, renumbering dxx_seqno from the new content).
func (e *Engine) ReplaceDocument(ctx context.Context, name string, data []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	if e.db == nil {
		return fmt.Errorf("xcolumn: ReplaceDocument before Load")
	}
	parsed, err := xmldom.Parse(data)
	if err != nil {
		return fmt.Errorf("xcolumn: replace %s: %w", name, err)
	}
	e.p.BeginMutation()
	if err := e.journal.Append(updatelog.Record{Kind: updatelog.KindReplace, Name: name, Data: data}); err != nil {
		return err
	}
	if _, exists := e.names[name]; exists {
		if err := e.applyDelete(ctx, name); err != nil {
			return err
		}
	}
	if err := e.applyInsert(name, data, parsed); err != nil {
		return err
	}
	return e.publishLocked(e.p.EndMutation())
}

// DeleteDocument implements core.Engine (U3: drop the CLOB reference and
// cascade to every side table).
func (e *Engine) DeleteDocument(ctx context.Context, name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	if e.db == nil {
		return fmt.Errorf("xcolumn: DeleteDocument before Load")
	}
	if _, exists := e.names[name]; !exists {
		return fmt.Errorf("xcolumn: document %q not found", name)
	}
	e.p.BeginMutation()
	if err := e.journal.Append(updatelog.Record{Kind: updatelog.KindDelete, Name: name}); err != nil {
		return err
	}
	if err := e.applyDelete(ctx, name); err != nil {
		return err
	}
	if err := e.syncStore(); err != nil {
		return err
	}
	return e.publishLocked(e.p.EndMutation())
}

// RecoverUpdates restores the store after a crash. Call pager Recover
// first; RecoverUpdates then reloads db and re-applies the committed
// update journal in order. Rebuild side-table indexes with BuildIndexes.
func (e *Engine) RecoverUpdates(ctx context.Context, db *core.Database) error {
	return updatelog.Replay(ctx, e, e.journal, db)
}

// applyInsert stores the CLOB and regenerates side-table rows. Caller
// holds the write lock and has journaled the update.
func (e *Engine) applyInsert(name string, data []byte, parsed *xmldom.Node) error {
	rid, err := e.clobs.Insert(data)
	if err != nil {
		return err
	}
	e.rids = append(e.rids, rid)
	e.names[name] = rid
	if _, err := e.populateSideTables(strconv.FormatUint(uint64(rid), 10), parsed); err != nil {
		return err
	}
	return e.syncStore()
}

// syncStore flushes the CLOB and side-table heaps and forces the
// update's dirty pages to disk, inside the mutation bracket.
func (e *Engine) syncStore() error {
	if err := e.clobs.Sync(); err != nil {
		return err
	}
	for _, tn := range e.db.TableNames() {
		if err := e.db.Table(tn).Flush(); err != nil {
			return err
		}
	}
	return e.p.SyncAll()
}

// applyDelete removes the document's side-table rows (every side table
// carries a doc reference column) and tombstones its CLOB. Load writes no
// index on doc — the DAD declares none, and the stored size and the cold
// query paths stay what the paper's system had — so the first delete
// builds one per side table, and every later delete probes it instead of
// scanning the table. Caller holds the write lock, has journaled the
// update and syncs after.
func (e *Engine) applyDelete(ctx context.Context, name string) error {
	rid := e.names[name]
	ref := strconv.FormatUint(uint64(rid), 10)
	for _, tn := range e.db.TableNames() {
		t := e.db.Table(tn)
		if err := t.CreateIndex("doc"); err != nil {
			return err
		}
		if _, err := t.DeleteWhere(ctx, "doc", ref); err != nil {
			return err
		}
	}
	if err := e.clobs.Delete(ctx, rid); err != nil {
		return err
	}
	delete(e.names, name)
	// Copy-on-write: the previous slice may still back a published
	// snapshot view, so never shift it in place.
	rids := make([]pager.RID, 0, len(e.rids))
	for _, r := range e.rids {
		if r != rid {
			rids = append(rids, r)
		}
	}
	e.rids = rids
	return nil
}

var _ core.Engine = (*Engine)(nil)
