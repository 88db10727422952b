// Package shredplan holds the hand-translated relational query plans that
// the shredding engines (DB2 Xcollection and SQL Server) execute, the way
// the paper's authors translated each XQuery to SQL by hand (§3.2: "the
// query translations from XQuery to their own languages ... were done by
// us").
//
// Plans return XML fragments reconstructed from rows. Reconstruction is
// where shredding hurts: order is only insertion order (flagged
// OrderGuaranteed=false for order-sensitive queries), mixed content is
// flattened or lost, and structure that did not survive the mapping (qp
// groupings, nested paragraphs) cannot be rebuilt — the §3.2.2 caveat.
package shredplan

import (
	"context"
	"strconv"

	"xbench/internal/core"
	"xbench/internal/metrics"
	"xbench/internal/plan"
	"xbench/internal/relational"
	"xbench/internal/shredder"
	"xbench/internal/xmldom"
	"xbench/internal/xquery"
)

// Exec runs the hand-translated plan of ph's query over the shredded
// store, routing its primary-table lookups through ph's access
// decisions.
func Exec(ctx context.Context, s shredder.View, ph *plan.Physical, p core.Params) (core.Result, error) {
	def, q, a := ph.Def, ph.Def.ID, Access{Plan: ph}
	var (
		items []string
		err   error
	)
	switch s.Class {
	case core.DCSD:
		items, err = execDCSD(ctx, s, a, q, p)
	case core.DCMD:
		items, err = execDCMD(ctx, s, a, q, p)
	case core.TCSD:
		items, err = execTCSD(ctx, s, a, q, p)
	case core.TCMD:
		items, err = execTCMD(ctx, s, a, q, p)
	default:
		err = core.ErrNoQuery
	}
	if err != nil {
		return core.Result{}, err
	}
	return core.Result{
		Items:            items,
		OrderGuaranteed:  !def.OrderSensitive,
		MixedContentLost: def.TouchesMixed && s.Opts.DropMixed,
	}, nil
}

// materializing opens the materialize phase of a shredded query: the
// row→XML reconstruction of a fragment. A plan opens it once every row
// the fragment needs has been fetched, so the phase never encloses a
// probe or a scan.
func materializing(s shredder.View) metrics.Span {
	return s.DB.Metrics().StartSpan(metrics.PhaseMaterialize)
}

// leaf appends <name>val</name> unless val is NULL.
func leaf(parent *xmldom.Node, name, val string) {
	if relational.IsNull(val) {
		return
	}
	parent.AddLeaf(name, val)
}

func xml(n *xmldom.Node) string { return n.XML() }

// mark adds the stored value k to a set, allocating its string only the
// first time the set sees it.
func mark(set map[string]bool, k []byte) {
	if !set[string(k)] {
		set[string(k)] = true
	}
}

// hasWord reports whether column c of the stored row holds text with
// the word in it. A NULL column holds no text: the sentinel's own
// letters do not answer a search for "null".
func hasWord(r relational.Rec, c int, word string) bool {
	return !r.Null(c) && xquery.ContainsWord(r.Col(c), word)
}

// ------------------------------------------------------------------ DC/SD

func execDCSD(ctx context.Context, s shredder.View, a Access, q core.QueryID, p core.Params) ([]string, error) {
	items := s.DB.Table("item_tab")
	authors := s.DB.Table("item_author_tab")
	pubs := s.DB.Table("item_publisher_tab")
	switch q {
	case core.Q5:
		// First author of item X, reconstructed from the author table in
		// insertion order (no order column in the mapping). The planner's
		// limit pushdown fetches only that one row.
		row, err := a.first(ctx, authors, "item_id", p.Get("X"))
		if err != nil || row == nil {
			return nil, err
		}
		defer materializing(s).End()
		return []string{xml(reconstructAuthor(authors, row))}, nil
	case core.Q8:
		rows, err := a.Eq(ctx, items, "id", p.Get("X"))
		if err != nil {
			return nil, err
		}
		var out []string
		for _, r := range rows {
			n := xmldom.NewElement("isbn")
			n.AddText(r[items.Col("isbn")])
			out = append(out, xml(n))
		}
		return out, nil
	case core.Q12:
		row, err := a.first(ctx, authors, "item_id", p.Get("X"))
		if err != nil || row == nil {
			return nil, err
		}
		defer materializing(s).End()
		return []string{xml(reconstructMailingAddress(authors, row))}, nil
	case core.Q14:
		// Date range via the date_of_release index (Table 3); the missing
		// FAX_number check requires scanning the publisher rows of the
		// qualifying items (no index on the missing element, per §3.2.3).
		inRange, err := a.Rng(ctx, items, "date_of_release", p.Get("LO"), p.Get("HI"))
		if err != nil {
			return nil, err
		}
		want := map[string]bool{}
		var ids []string
		for _, r := range inRange {
			id := r[items.Col("id")]
			if !want[id] {
				want[id] = true
				ids = append(ids, id)
			}
		}
		var out []string
		idCol, faxCol, nameCol := pubs.Col("item_id"), pubs.Col("fax_number"), pubs.Col("name")
		if err := pubs.Scan(ctx, func(r relational.Rec) bool {
			if want[string(r.Col(idCol))] && r.Null(faxCol) {
				n := xmldom.NewElement("name")
				n.AddText(string(r.Col(nameCol)))
				out = append(out, xml(n))
			}
			return true
		}); err != nil {
			return nil, err
		}
		return out, nil
	case core.Q10:
		// Sorting on a string column over a date range.
		rows, err := a.Rng(ctx, items, "date_of_release", p.Get("LO"), p.Get("HI"))
		if err != nil {
			return nil, err
		}
		// Index range scans return date order; re-establish document order
		// as the tie-breaker before the subject sort (ORDER BY subject, id).
		relational.SortByIDSuffix(rows, items.Col("id"))
		relational.SortRows(rows, items.Col("subject"), false, true)
		var out []string
		for _, r := range rows {
			n := xmldom.NewElement("r")
			n.SetAttr("id", r[items.Col("id")])
			n.AddLeaf("subject", r[items.Col("subject")])
			out = append(out, xml(n))
		}
		return out, nil
	case core.Q17:
		word := p.Get("W2")
		descCol, titleCol := items.Col("description"), items.Col("title")
		var out []string
		if err := items.Scan(ctx, func(r relational.Rec) bool {
			if hasWord(r, descCol, word) {
				n := xmldom.NewElement("title")
				n.AddText(string(r.Col(titleCol)))
				out = append(out, xml(n))
			}
			return true
		}); err != nil {
			return nil, err
		}
		return out, nil
	case core.Q20:
		// Datatype cast: number_of_pages compared numerically.
		limit := p.Get("N")
		var out []string
		pageCol, titleCol := items.Col("number_of_pages"), items.Col("title")
		if err := items.Scan(ctx, func(r relational.Rec) bool {
			if numGreater(string(r.Col(pageCol)), limit) {
				n := xmldom.NewElement("title")
				n.AddText(string(r.Col(titleCol)))
				out = append(out, xml(n))
			}
			return true
		}); err != nil {
			return nil, err
		}
		return out, nil
	}
	return execDCSDExtended(ctx, s, a, q, p)
}

func reconstructAuthor(t *relational.TableView, r relational.Row) *xmldom.Node {
	a := xmldom.NewElement("author")
	name := a.AddElement("name")
	leaf(name, "first_name", r[t.Col("first_name")])
	leaf(name, "middle_name", r[t.Col("middle_name")])
	leaf(name, "last_name", r[t.Col("last_name")])
	leaf(a, "date_of_birth", r[t.Col("date_of_birth")])
	leaf(a, "biography", r[t.Col("biography")])
	a.Append(reconstructContactInfo(t, r))
	return a
}

func reconstructContactInfo(t *relational.TableView, r relational.Row) *xmldom.Node {
	ci := xmldom.NewElement("contact_information")
	ci.Append(reconstructMailingAddress(t, r))
	leaf(ci, "phone_number", r[t.Col("phone_number")])
	leaf(ci, "email_address", r[t.Col("email_address")])
	return ci
}

func reconstructMailingAddress(t *relational.TableView, r relational.Row) *xmldom.Node {
	ma := xmldom.NewElement("mailing_address")
	leaf(ma, "street_address1", r[t.Col("street_address1")])
	leaf(ma, "street_address2", r[t.Col("street_address2")])
	leaf(ma, "city", r[t.Col("city")])
	leaf(ma, "state", r[t.Col("state")])
	leaf(ma, "zip_code", r[t.Col("zip_code")])
	leaf(ma, "name_of_country", r[t.Col("country")])
	return ma
}

func numGreater(a, b string) bool {
	af, aok := parseFloat(a)
	bf, bok := parseFloat(b)
	return aok && bok && af > bf
}

// ------------------------------------------------------------------ DC/MD

func execDCMD(ctx context.Context, s shredder.View, a Access, q core.QueryID, p core.Params) ([]string, error) {
	orders := s.DB.Table("order_tab")
	lines := s.DB.Table("order_line_tab")
	custs := s.DB.Table("customer_tab")
	switch q {
	case core.Q1:
		rows, err := a.Eq(ctx, orders, "id", p.Get("X"))
		if err != nil {
			return nil, err
		}
		var out []string
		for _, r := range rows {
			n := xmldom.NewElement("total")
			n.AddText(r[orders.Col("total")])
			out = append(out, xml(n))
		}
		return out, nil
	case core.Q5:
		row, err := a.first(ctx, lines, "order_id", p.Get("X"))
		if err != nil || row == nil {
			return nil, err
		}
		defer materializing(s).End()
		return []string{xml(reconstructOrderLine(lines, row))}, nil
	case core.Q8:
		rows, err := a.Eq(ctx, lines, "order_id", p.Get("X"))
		if err != nil {
			return nil, err
		}
		var out []string
		for _, r := range rows {
			n := xmldom.NewElement("item_id")
			n.AddText(r[lines.Col("item_id")])
			out = append(out, xml(n))
		}
		return out, nil
	case core.Q9:
		rows, err := a.Eq(ctx, orders, "id", p.Get("X"))
		if err != nil {
			return nil, err
		}
		var out []string
		for _, r := range rows {
			n := xmldom.NewElement("order_status")
			st := r[orders.Col("order_status")]
			if !relational.IsNull(st) {
				n.AddText(st)
			}
			out = append(out, xml(n))
		}
		return out, nil
	case core.Q10:
		rows, err := a.Rng(ctx, orders, "order_date", p.Get("LO"), p.Get("HI"))
		if err != nil {
			return nil, err
		}
		relational.SortByIDSuffix(rows, orders.Col("id"))
		relational.SortRows(rows, orders.Col("ship_type"), false, true)
		var out []string
		for _, r := range rows {
			n := xmldom.NewElement("r")
			n.AddLeaf("id", r[orders.Col("id")])
			n.AddLeaf("date", r[orders.Col("order_date")])
			n.AddLeaf("ship", r[orders.Col("ship_type")])
			out = append(out, xml(n))
		}
		return out, nil
	case core.Q12:
		rows, err := a.Eq(ctx, orders, "id", p.Get("X"))
		if err != nil || len(rows) == 0 {
			return nil, err
		}
		defer materializing(s).End()
		return []string{xml(reconstructCCXacts(orders, rows[0]))}, nil
	case core.Q14:
		rows, err := a.Rng(ctx, orders, "order_date", p.Get("LO"), p.Get("HI"))
		if err != nil {
			return nil, err
		}
		var out []string
		for _, r := range rows {
			if relational.IsNull(r[orders.Col("ship_country")]) {
				out = append(out, r[orders.Col("id")])
			}
		}
		return out, nil
	case core.Q16:
		// Retrieval of the whole order document: the expensive multi-join
		// reconstruction the paper describes.
		rows, err := a.Eq(ctx, orders, "id", p.Get("X"))
		if err != nil || len(rows) == 0 {
			return nil, err
		}
		lrows, err := byKey(ctx, lines, "order_id", p.Get("X"))
		if err != nil {
			return nil, err
		}
		defer materializing(s).End()
		return []string{xml(reconstructOrder(orders, lines, rows[0], lrows))}, nil
	case core.Q17:
		word := p.Get("W2")
		cCol, oCol := lines.Col("comment"), lines.Col("order_id")
		seen := map[string]bool{}
		var out []string
		if err := lines.Scan(ctx, func(r relational.Rec) bool {
			if hasWord(r, cCol, word) && !seen[string(r.Col(oCol))] {
				id := string(r.Col(oCol))
				seen[id] = true
				out = append(out, id)
			}
			return true
		}); err != nil {
			return nil, err
		}
		return out, nil
	case core.Q19:
		// Join-reordered by the planner: the probeable order side is the
		// outer loop, each match probing customers (index nested loop).
		orows, err := a.Eq(ctx, orders, "id", p.Get("X"))
		if err != nil {
			return nil, err
		}
		var out []string
		for _, o := range orows {
			crows, err := byKey(ctx, custs, "id", o[orders.Col("customer_id")])
			if err != nil {
				return nil, err
			}
			for _, c := range crows {
				n := xmldom.NewElement("r")
				n.AddLeaf("name", c[custs.Col("c_fname")]+" "+c[custs.Col("c_lname")])
				n.AddLeaf("phone", c[custs.Col("c_phone")])
				st := o[orders.Col("order_status")]
				if relational.IsNull(st) {
					st = ""
				}
				n.AddLeaf("status", st)
				out = append(out, xml(n))
			}
		}
		return out, nil
	}
	return execDCMDExtended(ctx, s, a, q, p)
}

func reconstructOrderLine(t *relational.TableView, r relational.Row) *xmldom.Node {
	ol := xmldom.NewElement("order_line")
	leaf(ol, "item_id", r[t.Col("item_id")])
	leaf(ol, "qty", r[t.Col("qty")])
	leaf(ol, "discount", r[t.Col("discount")])
	leaf(ol, "comment", r[t.Col("comment")])
	return ol
}

func reconstructCCXacts(t *relational.TableView, r relational.Row) *xmldom.Node {
	cc := xmldom.NewElement("cc_xacts")
	leaf(cc, "cc_type", r[t.Col("cc_type")])
	leaf(cc, "cc_number", r[t.Col("cc_number")])
	leaf(cc, "cc_name", r[t.Col("cc_name")])
	leaf(cc, "cc_expiry", r[t.Col("cc_expiry")])
	leaf(cc, "cc_auth_id", r[t.Col("cc_auth_id")])
	leaf(cc, "total_amount", r[t.Col("total_amount")])
	leaf(cc, "ship_country", r[t.Col("ship_country")])
	return cc
}

func reconstructOrder(orders, lines *relational.TableView, o relational.Row, lrows []relational.Row) *xmldom.Node {
	n := xmldom.NewElement("order")
	n.SetAttr("id", o[orders.Col("id")])
	leaf(n, "customer_id", o[orders.Col("customer_id")])
	leaf(n, "order_date", o[orders.Col("order_date")])
	leaf(n, "sub_total", o[orders.Col("sub_total")])
	leaf(n, "tax", o[orders.Col("tax")])
	leaf(n, "total", o[orders.Col("total")])
	leaf(n, "ship_type", o[orders.Col("ship_type")])
	leaf(n, "ship_date", o[orders.Col("ship_date")])
	leaf(n, "ship_addr_id", o[orders.Col("ship_addr_id")])
	st := o[orders.Col("order_status")]
	statusEl := n.AddElement("order_status")
	if !relational.IsNull(st) {
		statusEl.AddText(st)
	}
	n.Append(reconstructCCXacts(orders, o))
	ols := n.AddElement("order_lines")
	for _, lr := range lrows {
		ols.Append(reconstructOrderLine(lines, lr))
	}
	return n
}

// ------------------------------------------------------------------ TC/SD

func execTCSD(ctx context.Context, s shredder.View, a Access, q core.QueryID, p core.Params) ([]string, error) {
	entries := s.DB.Table("entry_tab")
	senses := s.DB.Table("sense_tab")
	quotes := s.DB.Table("quote_tab")
	entryID := func() (string, error) {
		row, err := a.first(ctx, entries, "hw", p.Get("W"))
		if err != nil || row == nil {
			return "", err
		}
		return row[entries.Col("id")], nil
	}
	switch q {
	case core.Q5:
		// First sense of the entry: the sense_no chain id (added per
		// §3.1.3 item 4) stands in for document order.
		id, err := entryID()
		if err != nil || id == "" {
			return nil, err
		}
		srows, err := byKey(ctx, senses, "entry_id", id)
		if err != nil || len(srows) == 0 {
			return nil, err
		}
		// Quotes of sense 1 are reattached flat: the qp grouping did not
		// survive the mapping, so the reconstructed structure differs from
		// the original (§3.2.2).
		qrows, err := byKey(ctx, quotes, "entry_id", id)
		if err != nil {
			return nil, err
		}
		defer materializing(s).End()
		first := srows[0]
		sense := xmldom.NewElement("sense")
		leaf(sense, "def", first[senses.Col("def")])
		qp := sense.AddElement("qp")
		for _, qr := range qrows {
			if qr[quotes.Col("sense_no")] != first[senses.Col("sense_no")] {
				continue
			}
			qp.Append(reconstructQuote(quotes, qr))
		}
		if len(qp.Children) == 0 {
			sense.Children = sense.Children[:len(sense.Children)-1]
		}
		return []string{xml(sense)}, nil
	case core.Q8:
		id, err := entryID()
		if err != nil || id == "" {
			return nil, err
		}
		qrows, err := byKey(ctx, quotes, "entry_id", id)
		if err != nil {
			return nil, err
		}
		var out []string
		for _, qr := range qrows {
			qt := xmldom.NewElement("qt")
			v := qr[quotes.Col("qt")]
			if !relational.IsNull(v) {
				qt.AddText(v)
			}
			out = append(out, xml(qt))
		}
		return out, nil
	case core.Q12:
		id, err := entryID()
		if err != nil || id == "" {
			return nil, err
		}
		qrows, err := byKey(ctx, quotes, "entry_id", id)
		if err != nil {
			return nil, err
		}
		defer materializing(s).End()
		qp := xmldom.NewElement("qp")
		for _, qr := range qrows {
			if qr[quotes.Col("sense_no")] == "1" {
				qp.Append(reconstructQuote(quotes, qr))
			}
		}
		if len(qp.Children) == 0 {
			return nil, nil
		}
		return []string{xml(qp)}, nil
	case core.Q14:
		var out []string
		etymCol, hwCol := entries.Col("etym"), entries.Col("hw")
		if err := entries.Scan(ctx, func(r relational.Rec) bool {
			if r.Null(etymCol) {
				n := xmldom.NewElement("hw")
				n.AddText(string(r.Col(hwCol)))
				out = append(out, xml(n))
			}
			return true
		}); err != nil {
			return nil, err
		}
		return out, nil
	case core.Q17:
		// Text search must scan every table holding entry text.
		word := p.Get("W2")
		match := map[string]bool{}
		idCol, hwCol, etymCol := entries.Col("id"), entries.Col("hw"), entries.Col("etym")
		type entryRow struct{ id, hw string }
		var order []entryRow
		if err := entries.Scan(ctx, func(r relational.Rec) bool {
			id := string(r.Col(idCol))
			order = append(order, entryRow{id, string(r.Col(hwCol))})
			if hasWord(r, hwCol, word) || hasWord(r, etymCol, word) {
				match[id] = true
			}
			return true
		}); err != nil {
			return nil, err
		}
		defCol, sEntryCol := senses.Col("def"), senses.Col("entry_id")
		if err := senses.Scan(ctx, func(r relational.Rec) bool {
			if hasWord(r, defCol, word) {
				mark(match, r.Col(sEntryCol))
			}
			return true
		}); err != nil {
			return nil, err
		}
		qtCol, aCol, locCol, qEntryCol := quotes.Col("qt"), quotes.Col("a"), quotes.Col("loc"), quotes.Col("entry_id")
		if err := quotes.Scan(ctx, func(r relational.Rec) bool {
			if hasWord(r, qtCol, word) || hasWord(r, aCol, word) || hasWord(r, locCol, word) {
				mark(match, r.Col(qEntryCol))
			}
			return true
		}); err != nil {
			return nil, err
		}
		var out []string
		for _, e := range order {
			if match[e.id] {
				n := xmldom.NewElement("hw")
				n.AddText(e.hw)
				out = append(out, xml(n))
			}
		}
		return out, nil
	}
	return execTCSDExtended(ctx, s, a, q, p)
}

func reconstructQuote(t *relational.TableView, r relational.Row) *xmldom.Node {
	q := xmldom.NewElement("q")
	leaf(q, "qd", r[t.Col("qd")])
	leaf(q, "a", r[t.Col("a")])
	leaf(q, "loc", r[t.Col("loc")])
	qt := q.AddElement("qt")
	if v := r[t.Col("qt")]; !relational.IsNull(v) {
		qt.AddText(v)
	}
	return q
}

// ------------------------------------------------------------------ TC/MD

func execTCMD(ctx context.Context, s shredder.View, a Access, q core.QueryID, p core.Params) ([]string, error) {
	arts := s.DB.Table("article_tab")
	secs := s.DB.Table("sec_tab")
	switch q {
	case core.Q1:
		rows, err := a.Eq(ctx, arts, "id", p.Get("X"))
		if err != nil {
			return nil, err
		}
		var out []string
		for _, r := range rows {
			n := xmldom.NewElement("title")
			n.AddText(r[arts.Col("title")])
			out = append(out, xml(n))
		}
		return out, nil
	case core.Q5:
		rows, err := a.Eq(ctx, secs, "article_id", p.Get("X"))
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			if relational.IsNull(r[secs.Col("parent_sec")]) {
				h := r[secs.Col("heading")]
				if relational.IsNull(h) {
					return nil, nil
				}
				n := xmldom.NewElement("heading")
				n.AddText(h)
				return []string{xml(n)}, nil
			}
		}
		return nil, nil
	case core.Q8:
		rows, err := a.Eq(ctx, secs, "article_id", p.Get("X"))
		if err != nil {
			return nil, err
		}
		var out []string
		for _, r := range rows {
			if relational.IsNull(r[secs.Col("parent_sec")]) && !relational.IsNull(r[secs.Col("heading")]) {
				n := xmldom.NewElement("heading")
				n.AddText(r[secs.Col("heading")])
				out = append(out, xml(n))
			}
		}
		return out, nil
	case core.Q12:
		rows, err := a.Eq(ctx, arts, "id", p.Get("X"))
		if err != nil || len(rows) == 0 {
			return nil, err
		}
		if relational.IsNull(rows[0][arts.Col("has_abstract")]) {
			return nil, nil
		}
		// Reconstruction join: the abstract's paragraphs were shredded into
		// their own table, so the fragment rebuilds exactly.
		paras := s.DB.Table("abs_para_tab")
		prows, err := byKey(ctx, paras, "article_id", p.Get("X"))
		if err != nil {
			return nil, err
		}
		defer materializing(s).End()
		return []string{xml(reconstructAbstract(paras, prows))}, nil
	case core.Q14:
		rows, err := a.Rng(ctx, arts, "date", p.Get("LO"), p.Get("HI"))
		if err != nil {
			return nil, err
		}
		var out []string
		for _, r := range rows {
			if relational.IsNull(r[arts.Col("genre")]) {
				n := xmldom.NewElement("title")
				n.AddText(r[arts.Col("title")])
				out = append(out, xml(n))
			}
		}
		return out, nil
	case core.Q17:
		word := p.Get("W2")
		match := map[string]bool{}
		type artRow struct{ id, title string }
		var order []artRow
		idCol, titleCol := arts.Col("id"), arts.Col("title")
		if err := arts.Scan(ctx, func(r relational.Rec) bool {
			id := string(r.Col(idCol))
			order = append(order, artRow{id, string(r.Col(titleCol))})
			if hasWord(r, titleCol, word) {
				match[id] = true
			}
			return true
		}); err != nil {
			return nil, err
		}
		// Every other table holding article text (table, then its text
		// columns) marks the articles whose non-NULL text has the word.
		for _, tc := range [][]string{
			{"abs_para_tab", "text"}, {"para_tab", "text"},
			{"art_author_tab", "name", "affiliation", "bio"},
			{"kw_tab", "kw"}, {"sec_tab", "heading"},
		} {
			tab := s.DB.Table(tc[0])
			artCol, cols := tab.Col("article_id"), make([]int, 0, 3)
			for _, c := range tc[1:] {
				cols = append(cols, tab.Col(c))
			}
			if err := tab.Scan(ctx, func(r relational.Rec) bool {
				for _, c := range cols {
					if hasWord(r, c, word) {
						mark(match, r.Col(artCol))
					}
				}
				return true
			}); err != nil {
				return nil, err
			}
		}
		var out []string
		for _, a := range order {
			if match[a.id] {
				n := xmldom.NewElement("title")
				n.AddText(a.title)
				out = append(out, xml(n))
			}
		}
		return out, nil
	}
	return execTCMDExtended(ctx, s, a, q, p)
}

// reconstructAbstract joins the abstract paragraphs back into their
// original structure.
func reconstructAbstract(paras *relational.TableView, rows []relational.Row) *xmldom.Node {
	ab := xmldom.NewElement("abstract")
	for _, r := range rows {
		ab.AddLeaf("p", r[paras.Col("text")])
	}
	return ab
}

func parseFloat(s string) (float64, bool) {
	if relational.IsNull(s) {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}
