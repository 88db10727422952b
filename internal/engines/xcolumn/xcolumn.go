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
	"strconv"
	"time"

	"xbench/internal/core"
	"xbench/internal/engines/engbase"
	"xbench/internal/engines/shredplan"
	"xbench/internal/metrics"
	"xbench/internal/pager"
	"xbench/internal/plan"
	"xbench/internal/queries"
	"xbench/internal/relational"
	"xbench/internal/xmldom"
	"xbench/internal/xquery"
)

// Engine is an Xcolumn instance: the shared engine lifecycle
// (engbase.Base: load, snapshot reads, journaled updates, close) over
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
type view struct {
	class core.Class
	clobs pager.HeapView
	rids  []pager.RID
	db    *relational.DBView
}

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
	return &view{class: s.class, clobs: cv, rids: rids, db: db}, nil
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
	switch db.Class {
	case core.DCMD:
		s.db.Create("order_side", "doc", "id", "order_date", "ship_type",
			"order_status", "ship_country")
		s.db.Create("line_side", "doc", "dxx_seqno", "item_id", "comment")
		s.db.Create("customer_side", "doc", "dxx_seqno", "id", "c_fname",
			"c_lname", "c_phone")
	case core.TCMD:
		s.db.Create("article_side", "doc", "id", "title", "genre", "date")
		s.db.Create("sec_side", "doc", "dxx_seqno", "heading", "top")
	}
	err := engbase.ParseDocs(ctx, "xcolumn", db, func(d *core.Doc, doc *xmldom.Node) error {
		rid, err := s.clobs.Insert(d.Data)
		if err != nil {
			return err
		}
		s.rids = append(s.rids, rid)
		s.names[d.Name] = rid
		rows, err := s.populateSideTables(strconv.FormatUint(uint64(rid), 10), doc)
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

func (s *store) populateSideTables(doc string, parsed *xmldom.Node) (int, error) {
	rows := 0
	ins := func(table string, row relational.Row) error {
		rows++
		return s.db.Table(table).Insert(row)
	}
	root := parsed.Root()
	null := relational.Null
	opt := func(n *xmldom.Node, name string) string {
		if c := n.FirstChild(name); c != nil {
			return c.Text()
		}
		return null
	}
	switch s.class {
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

// BuildIndexes implements engbase.Store: Table 3 indexes land on the
// side tables.
func (s *store) BuildIndexes(specs []core.IndexSpec) error {
	for _, spec := range specs {
		switch {
		case s.class == core.DCMD && spec.Target == "order/@id":
			if err := s.db.Table("order_side").CreateIndex("id"); err != nil {
				return err
			}
		case s.class == core.TCMD && spec.Target == "article/@id":
			if err := s.db.Table("article_side").CreateIndex("id"); err != nil {
				return err
			}
		}
	}
	return nil
}

// fetchDoc reads and parses the CLOB referenced by a side-table doc value.
func (v *view) fetchDoc(ctx context.Context, doc string) (*xmldom.Node, error) {
	rid, err := strconv.ParseUint(doc, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("xcolumn: bad doc reference %q", doc)
	}
	sp := v.db.Metrics().StartSpan(metrics.PhaseMaterialize)
	defer sp.End()
	data, err := v.clobs.Get(ctx, pager.RID(rid))
	if err != nil {
		return nil, err
	}
	return xmldom.Parse(data)
}

// Exec implements engbase.View. Cancellation via ctx is honored at
// page-fetch granularity.
func (v *view) Exec(ctx context.Context, ph *plan.Physical, p core.Params) (core.Result, error) {
	q, a := ph.Def.ID, shredplan.Access{Plan: ph}
	var (
		items []string
		err   error
	)
	switch v.class {
	case core.DCMD:
		items, err = v.execDCMD(ctx, a, q, p)
	case core.TCMD:
		items, err = v.execTCMD(ctx, a, q, p)
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
	}, nil
}

// Class implements engbase.View.
func (v *view) Class() core.Class { return v.class }

// Explain implements engbase.View: the planner's tree.
func (v *view) Explain(ph *plan.Physical) (*core.PlanNode, error) { return ph.Root, nil }

// Stats implements engbase.View: the CLOB heap drives scan cost (every
// unindexed query rereads the documents), and the side-table key indexes
// are the only probe paths.
func (v *view) Stats() plan.StatValues {
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
	return st
}

var _ core.Explainer = (*Engine)(nil)

// docOf finds the CLOB reference for a key via the side table (indexed
// when Table 3 covers it, a forced scan when the plan rejects the
// probe).
func (v *view) docOf(ctx context.Context, a shredplan.Access, table, col, key string) (string, relational.Rec, error) {
	t := v.db.Table(table)
	rows, err := a.Eq(ctx, t, col, key, 0)
	if err != nil || len(rows) == 0 {
		return "", nil, err
	}
	return string(rows[0].Col(t.Col("doc"))), rows[0], nil
}

// orEmpty is a column's value as a string() constructor reads it: NULL,
// an absent element, is the empty string.
func orEmpty(v string) string {
	if relational.IsNull(v) {
		return ""
	}
	return v
}

// fragment is the serialized element n, an absent element's none.
func fragment(n *xmldom.Node) []string {
	if n == nil {
		return nil
	}
	return []string{n.XML()}
}

func (v *view) execDCMD(ctx context.Context, a shredplan.Access, q core.QueryID, p core.Params) ([]string, error) {
	orderSide := v.db.Table("order_side")
	switch q {
	case core.Q1, core.Q5, core.Q8, core.Q9, core.Q12, core.Q16:
		doc, _, err := v.docOf(ctx, a, "order_side", "id", p.Get("X"))
		if err != nil || doc == "" {
			return nil, err
		}
		parsed, err := v.fetchDoc(ctx, doc)
		if err != nil {
			return nil, err
		}
		root := parsed.Root()
		switch q {
		case core.Q1:
			return fragment(root.FirstChild("total")), nil
		case core.Q5:
			lines := root.FirstChild("order_lines").ChildElements("order_line")
			if len(lines) == 0 {
				return nil, nil
			}
			return []string{lines[0].XML()}, nil
		case core.Q8:
			var out []string
			for _, ol := range root.FirstChild("order_lines").ChildElements("order_line") {
				out = append(out, fragment(ol.FirstChild("item_id"))...)
			}
			return out, nil
		case core.Q9:
			return fragment(root.FirstChild("order_status")), nil
		case core.Q12:
			return fragment(root.FirstChild("cc_xacts")), nil
		case core.Q16:
			return []string{root.XML()}, nil
		}
	case core.Q10:
		rows, err := a.Rng(ctx, orderSide, "order_date", p.Get("LO"), p.Get("HI"))
		if err != nil {
			return nil, err
		}
		relational.Sort(rows, relational.SortKey{Col: orderSide.Col("ship_type")},
			relational.SortKey{Col: orderSide.Col("id"), IDSuffix: true})
		var out []string
		enc := xmldom.NewFragment()
		for _, r := range rows {
			enc.Begin("r")
			for _, leaf := range [...][2]string{{"id", "id"}, {"date", "order_date"}, {"ship", "ship_type"}} {
				enc.Begin(leaf[0])
				if c := orderSide.Col(leaf[1]); !r.Null(c) {
					enc.TextBytes(r.Col(c))
				}
				enc.End()
			}
			out = append(out, enc.End().Item())
		}
		return out, nil
	case core.Q14:
		rows, err := a.Rng(ctx, orderSide, "order_date", p.Get("LO"), p.Get("HI"))
		if err != nil {
			return nil, err
		}
		var out []string
		for _, r := range rows {
			if r.Null(orderSide.Col("ship_country")) {
				out = append(out, string(r.Col(orderSide.Col("id"))))
			}
		}
		return out, nil
	case core.Q17:
		// No full-text side table: scan every CLOB (the Table 7 blow-up).
		return v.clobWordSearch(ctx, p.Get("W2"), func(root *xmldom.Node) (string, bool) {
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
		doc, orow, err := v.docOf(ctx, a, "order_side", "id", p.Get("X"))
		if err != nil || doc == "" {
			return nil, err
		}
		parsed, err := v.fetchDoc(ctx, doc)
		if err != nil {
			return nil, err
		}
		custID := ""
		if c := parsed.Root().FirstChild("customer_id"); c != nil {
			custID = c.Text()
		}
		custSide := v.db.Table("customer_side")
		var out []string
		idCol := custSide.Col("id")
		if err := custSide.Scan(ctx, func(rec relational.Rec) bool {
			if string(rec.Col(idCol)) == custID {
				r := rec.Row()
				n := xmldom.NewElement("r")
				n.AddLeaf("name", orEmpty(r[custSide.Col("c_fname")])+" "+orEmpty(r[custSide.Col("c_lname")]))
				n.AddLeaf("phone", orEmpty(r[custSide.Col("c_phone")]))
				n.AddLeaf("status", orEmpty(string(orow.Col(orderSide.Col("order_status")))))
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

func (v *view) execTCMD(ctx context.Context, a shredplan.Access, q core.QueryID, p core.Params) ([]string, error) {
	artSide := v.db.Table("article_side")
	secSide := v.db.Table("sec_side")
	switch q {
	case core.Q1:
		rows, err := a.Eq(ctx, artSide, "id", p.Get("X"), 0)
		if err != nil {
			return nil, err
		}
		var out []string
		for _, r := range rows {
			if t := artSide.Col("title"); !r.Null(t) {
				out = append(out, xmldom.NewElement("title").AddText(string(r.Col(t))).XML())
			}
		}
		return out, nil
	case core.Q5, core.Q8:
		doc, _, err := v.docOf(ctx, a, "article_side", "id", p.Get("X"))
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
		docCol, seqCol, headCol, topCol := secSide.Col("doc"), secSide.Col("dxx_seqno"), secSide.Col("heading"), secSide.Col("top")
		if err := secSide.Scan(ctx, func(r relational.Rec) bool {
			if string(r.Col(docCol)) == doc {
				seq, _ := strconv.Atoi(string(r.Col(seqCol)))
				secs = append(secs, secRow{
					seq:     seq,
					heading: string(r.Col(headCol)),
					top:     string(r.Col(topCol)) == "1",
				})
			}
			return true
		}); err != nil {
			return nil, err
		}
		var out []string
		for _, sec := range secs {
			if !sec.top {
				continue
			}
			if q == core.Q5 {
				// First top-level section only; no result if it lacks a
				// heading (matching sec[1]/heading semantics).
				if relational.IsNull(sec.heading) {
					return nil, nil
				}
				n := xmldom.NewElement("heading")
				n.AddText(sec.heading)
				return []string{n.XML()}, nil
			}
			if relational.IsNull(sec.heading) {
				continue
			}
			n := xmldom.NewElement("heading")
			n.AddText(sec.heading)
			out = append(out, n.XML())
		}
		return out, nil
	case core.Q12:
		doc, _, err := v.docOf(ctx, a, "article_side", "id", p.Get("X"))
		if err != nil || doc == "" {
			return nil, err
		}
		parsed, err := v.fetchDoc(ctx, doc)
		if err != nil {
			return nil, err
		}
		ab := parsed.Root().FirstChild("prolog").FirstChild("abstract")
		if ab == nil {
			return nil, nil
		}
		return []string{ab.XML()}, nil
	case core.Q14:
		rows, err := a.Rng(ctx, artSide, "date", p.Get("LO"), p.Get("HI"))
		if err != nil {
			return nil, err
		}
		var out []string
		for _, r := range rows {
			if t := artSide.Col("title"); r.Null(artSide.Col("genre")) && !r.Null(t) {
				out = append(out, xmldom.NewElement("title").AddText(string(r.Col(t))).XML())
			}
		}
		return out, nil
	case core.Q17:
		return v.clobWordSearch(ctx, p.Get("W2"), func(root *xmldom.Node) (string, bool) {
			if root.Name != "article" {
				return "", false
			}
			if t := root.FirstChild("prolog").FirstChild("title"); t != nil && xquery.ContainsWord(root.Text(), p.Get("W2")) {
				return t.XML(), true
			}
			return "", false
		})
	}
	return nil, core.ErrNoQuery
}

// clobWordSearch scans every stored CLOB: a cheap prefilter over the raw
// bytes where the heap holds them, then a full parse of candidate
// documents to extract the result.
func (v *view) clobWordSearch(ctx context.Context, word string, extract func(root *xmldom.Node) (string, bool)) ([]string, error) {
	// Two phases: parse is the candidates' parses, scan what is left of
	// the pass, so they partition its time instead of nesting.
	start, parsing := time.Now(), time.Duration(0)
	defer func() {
		v.db.Metrics().AddPhase(metrics.PhaseScan, time.Since(start)-parsing)
		v.db.Metrics().AddPhase(metrics.PhaseParse, parsing)
	}()
	var out []string
	for _, rid := range v.rids {
		data, err := v.clobs.Get(ctx, rid)
		if err != nil {
			return nil, err
		}
		if !xquery.ContainsWord(data, word) {
			continue
		}
		t := time.Now()
		parsed, err := xmldom.Parse(data)
		parsing += time.Since(t)
		if err != nil {
			return nil, err
		}
		if item, ok := extract(parsed.Root()); ok {
			out = append(out, item)
		}
	}
	return out, nil
}

// The update hooks below apply U1-U3 inside the journal-first bracket
// engbase.Base runs. Applying a replace or delete regenerates the side
// tables for the document — the dxx_seqno columns are renumbered from
// the new content — and tombstones the old CLOB, whose space the next
// CLOB that fits reuses.

// Validate implements engbase.Store: any well-formed document can be a
// CLOB; one with an unknown root gets no side-table rows.
func (s *store) Validate(*xmldom.Node) error { return nil }

// Exists implements engbase.Store.
func (s *store) Exists(name string) bool {
	_, ok := s.names[name]
	return ok
}

// ApplyInsert implements engbase.Store: it stores the CLOB and generates
// the side-table rows.
func (s *store) ApplyInsert(_ context.Context, name string, data []byte, parsed *xmldom.Node) error {
	rid, err := s.clobs.Insert(data)
	if err != nil {
		return err
	}
	s.rids = append(s.rids, rid)
	s.names[name] = rid
	_, err = s.populateSideTables(strconv.FormatUint(uint64(rid), 10), parsed)
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
