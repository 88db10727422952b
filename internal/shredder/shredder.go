// Package shredder implements the DAD-style XML-to-relational mapping used
// by the shredding engines (DB2 Xcollection and SQL Server in the paper).
// Each XBench class has a fixed decomposition into tables, mirroring the
// annotated schemas the paper's authors wrote by hand (§3.1.1, §3.1.2).
//
// The mapping reproduces the documented problems of shredding (§3.1.3):
//
//   - Document order is not represented (no order columns), so ordered
//     access and reconstruction are only accidentally correct.
//   - Mixed-content elements cannot be mapped; with Options.DropMixed
//     (SQL Server) their text is lost entirely, otherwise (Xcollection)
//     only the flattened text survives, losing inline markup.
//   - Chain relationships rely on the unique ids the generators add to
//     ambiguous elements (sec/@id), per the paper's fix.
//   - A decomposition row limit per document (DB2's 1024-row limit,
//     scaled to this reproduction's database sizes) rejects large
//     single-document databases.
//
// ShredDocument and DeleteDocumentRows only insert and delete rows.
// Committing them is the caller's: the engine's load loop syncs the store
// after every document (Sync — the document-at-a-time commit Table 4
// prices), and an update is committed once, by engbase.Base.publish.
//
// Beside the mapping lies DB2 Xcolumn's DAD (dad.go): the side tables of
// searchable values over the documents Xcolumn keeps intact, which
// Columns resolves as it does the shredded tables.
package shredder

import (
	"bytes"
	"context"
	"fmt"

	"xbench/internal/core"
	"xbench/internal/relational"
	"xbench/internal/xmldom"
)

// Options control the engine-specific mapping behavior.
type Options struct {
	// DropMixed discards the character data of mixed-content elements
	// (SQL Server, paper §3.1.3 item 3). When false the flattened text is
	// stored (structure is still lost).
	DropMixed bool
	// RowLimitPerDoc rejects any document that decomposes into more rows
	// (DB2 Xcollection's 1024-row limit, §3.1.3 item 5). 0 disables.
	RowLimitPerDoc int
}

// Store holds the shredded representation of one database: the writer's
// half; queries read a view of its tables (relational.DB.View).
type Store struct {
	Class core.Class
	DB    *relational.DB
	Opts  Options
	// Rows is the total number of rows inserted.
	Rows int
	// SkippedMixed counts mixed-content elements whose text was dropped.
	SkippedMixed int
}

// schema is the mapping: per class, each table as its name followed by
// its columns in stored order.
var schema = map[core.Class][][]string{
	core.DCSD: {
		{"item_tab", "id", "title", "date_of_release", "subject",
			"description", "srp", "cost", "avail", "isbn", "number_of_pages",
			"backing", "length", "width", "height"},
		{"item_author_tab", "item_id", "first_name", "middle_name",
			"last_name", "date_of_birth", "biography", "street_address1",
			"street_address2", "city", "state", "zip_code", "country",
			"phone_number", "email_address"},
		{"item_publisher_tab", "item_id", "name", "fax_number",
			"phone_number", "email_address"},
	},
	// The paper maps all orderXXX.xml documents into two tables (order_tab
	// and order_line_tab); CC_XACTS is 1:1 and folded in.
	core.DCMD: {
		{"order_tab", "id", "customer_id", "order_date", "sub_total",
			"tax", "total", "ship_type", "ship_date", "ship_addr_id",
			"order_status", "cc_type", "cc_number", "cc_name", "cc_expiry",
			"cc_auth_id", "total_amount", "ship_country"},
		{"order_line_tab", "order_id", "item_id", "qty", "discount", "comment"},
		{"customer_tab", "id", "c_uname", "c_fname", "c_lname",
			"c_phone", "c_email", "c_since", "c_discount", "c_addr_id"},
		{"flat_item_tab", "id", "i_title", "i_a_id", "i_pub_date",
			"i_publisher", "i_subject", "i_cost", "i_isbn", "i_page"},
		{"flat_author_tab", "id", "a_fname", "a_lname", "a_mname",
			"a_dob", "a_bio"},
		{"address_tab", "id", "addr_street1", "addr_street2",
			"addr_city", "addr_state", "addr_zip", "addr_co_id"},
		{"country_tab", "id", "co_name", "co_exchange", "co_currency"},
	},
	core.TCSD: {
		{"entry_tab", "id", "hw", "pr", "pos", "etym"},
		{"sense_tab", "entry_id", "sense_no", "def"},
		{"quote_tab", "entry_id", "sense_no", "qd", "a", "loc", "qt"},
		{"cr_tab", "entry_id", "target", "text"},
	},
	core.TCMD: {
		{"article_tab", "id", "doc", "title", "genre", "date",
			"country", "has_abstract"},
		{"abs_para_tab", "article_id", "text"},
		{"art_author_tab", "article_id", "name", "affiliation",
			"contact", "bio"},
		{"sec_tab", "id", "article_id", "parent_sec", "heading"},
		{"para_tab", "sec_id", "article_id", "text"},
		{"kw_tab", "article_id", "kw"},
		{"ref_tab", "article_id", "target"},
	},
}

// NewStore creates the per-class table schema in db.
func NewStore(class core.Class, db *relational.DB, opts Options) *Store {
	for _, t := range schema[class] {
		db.Create(t[0], t[1:]...)
	}
	return &Store{Class: class, DB: db, Opts: opts}
}

// Columns returns the columns of a table of the mapping or of Xcolumn's
// DAD in stored order, nil for a name neither has. A query plan resolves
// its column names through it once, before any store exists.
func Columns(table string) []string {
	for _, m := range [...]map[core.Class][][]string{schema, dad} {
		for _, tables := range m {
			for _, t := range tables {
				if t[0] == table {
					return t[1:]
				}
			}
		}
	}
	return nil
}

// text returns the string value of the named child, or NULL when absent.
func text(n xmldom.Ref, name string) string {
	c := n.Child(name)
	if c.IsZero() {
		return relational.Null
	}
	return string(c.Text())
}

// attr returns an attribute value or NULL.
func attr(n xmldom.Ref, name string) string {
	if v, ok := n.Attr(name); ok {
		return string(v)
	}
	return relational.Null
}

// mixedText returns the flattened text of a mixed-content element,
// honoring DropMixed, and reports whether content was dropped.
func (s *Store) mixedText(n xmldom.Ref) (string, bool) {
	if n.IsZero() {
		return relational.Null, false
	}
	if mixed(n) && s.Opts.DropMixed {
		// The element's text cannot be mapped (paper §3.1.3 item 3); its
		// presence survives as an empty value, its content is lost.
		s.SkippedMixed++
		return "", true
	}
	return string(n.Text()), false
}

// mixed is Node.HasMixedContent: whether n directly contains both
// non-whitespace text and element children — the content model
// relational mappings cannot represent (paper §3.1.3 item 3).
func mixed(n xmldom.Ref) bool {
	hasText, hasElem := false, false
	for c, ok := n.FirstChild(); ok; c, ok = c.NextSibling() {
		switch c.Kind() {
		case xmldom.TextKind:
			hasText = hasText || len(bytes.TrimSpace(c.Data())) > 0
		case xmldom.ElementKind:
			hasElem = true
		}
	}
	return hasText && hasElem
}

// ShredDocument decomposes one document, parsed into rec, into rows. It
// only inserts: the caller commits — a load syncs the store after every
// document, an update's commit is the engine's. It returns the number of
// rows produced, enforcing Options.RowLimitPerDoc.
func (s *Store) ShredDocument(name string, rec *xmldom.Record) (int, error) {
	before := s.Rows
	root := rec.Element()
	if root.IsZero() {
		return 0, fmt.Errorf("shredder: %s has no root element", name)
	}
	var err error
	switch s.Class {
	case core.DCSD:
		err = s.shredCatalog(root)
	case core.DCMD:
		err = s.shredDCMD(name, root)
	case core.TCSD:
		err = s.shredDictionary(root)
	case core.TCMD:
		err = s.shredArticle(name, root)
	default:
		err = fmt.Errorf("shredder: unsupported class %v", s.Class)
	}
	if err != nil {
		return 0, err
	}
	produced := s.Rows - before
	if s.Opts.RowLimitPerDoc > 0 && produced > s.Opts.RowLimitPerDoc {
		return produced, fmt.Errorf("shredder: document %s decomposed into %d rows, exceeding the %d-row limit: %w",
			name, produced, s.Opts.RowLimitPerDoc, core.ErrUnsupported)
	}
	return produced, nil
}

func (s *Store) insert(table string, row relational.Row) error {
	if err := s.DB.Table(table).Insert(row); err != nil {
		return err
	}
	s.Rows++
	return nil
}

// Sync flushes all tables and forces dirty pages to disk: the end of a
// load's per-document transaction.
func (s *Store) Sync() error {
	for _, name := range s.DB.TableNames() {
		if err := s.DB.Table(name).Flush(); err != nil {
			return err
		}
	}
	return s.DB.Pager.SyncAll()
}

// Truncate empties the shredded database (schema preserved) so a failed
// load leaves a clean, loadable store.
func (s *Store) Truncate() error {
	s.Rows = 0
	s.SkippedMixed = 0
	return s.DB.Truncate()
}

// TargetColumn maps a Table 3 index target ("hw", "item/@id") to the
// shredded (table, column) it lands on. The shredding engines build
// their indexes through it, and the planner uses it to route costed
// index probes to the right table.
func TargetColumn(class core.Class, target string) (table, col string, ok bool) {
	switch class {
	case core.TCSD:
		if target == "hw" {
			return "entry_tab", "hw", true
		}
	case core.TCMD:
		if target == "article/@id" {
			return "article_tab", "id", true
		}
	case core.DCSD:
		switch target {
		case "item/@id":
			return "item_tab", "id", true
		case "date_of_release":
			return "item_tab", "date_of_release", true
		}
	case core.DCMD:
		if target == "order/@id" {
			return "order_tab", "id", true
		}
	}
	return "", "", false
}

// UnitDocID returns the root id of a document the update workload can
// target: a whole <order> (DC/MD) or <article> (TC/MD). Those are the
// unit documents of the multi-document classes — one document per
// logical entity, so document-granularity insert/replace/delete maps to
// a clean relational cascade keyed by that id. Other roots (the shared
// customers/items/... documents of DC/MD) return ok=false: they shred
// into rows for many entities and have no single delete key.
func UnitDocID(class core.Class, rec *xmldom.Record) (string, bool) {
	root := rec.Element()
	if root.IsZero() {
		return "", false
	}
	switch name := string(root.Name()); {
	case class == core.DCMD && name == "order", class == core.TCMD && name == "article":
		id, ok := root.Attr("id")
		return string(id), ok && len(id) > 0
	}
	return "", false
}

// DeleteDocumentRows removes every row the unit document with the given
// root id shredded into, returning the number of rows deleted. The
// cascade is the inverse of shredDCMD/shredArticle: each per-document
// table is filtered on its document-id column. Like ShredDocument it
// leaves the commit to its caller.
func (s *Store) DeleteDocumentRows(ctx context.Context, id string) (int, error) {
	var cascade [][2]string
	switch s.Class {
	case core.DCMD:
		cascade = [][2]string{
			{"order_tab", "id"},
			{"order_line_tab", "order_id"},
		}
	case core.TCMD:
		cascade = [][2]string{
			{"article_tab", "id"},
			{"abs_para_tab", "article_id"},
			{"art_author_tab", "article_id"},
			{"sec_tab", "article_id"},
			{"para_tab", "article_id"},
			{"kw_tab", "article_id"},
			{"ref_tab", "article_id"},
		}
	default:
		return 0, fmt.Errorf("shredder: class %v has no unit documents: %w", s.Class, core.ErrUnsupported)
	}
	deleted := 0
	for _, tc := range cascade {
		n, err := s.DB.Table(tc[0]).DeleteWhere(ctx, tc[1], id)
		if err != nil {
			return deleted, fmt.Errorf("shredder: delete %s rows of %s: %w", tc[0], id, err)
		}
		deleted += n
	}
	s.Rows -= deleted
	return deleted, nil
}

func (s *Store) shredCatalog(root xmldom.Ref) error {
	for item := root.Child("item"); !item.IsZero(); item = item.Sibling("item") {
		id := attr(item, "id")
		attrs := item.Child("attributes")
		dims := attrs.Child("dimensions")
		if err := s.insert("item_tab", relational.Row{
			id, text(item, "title"), text(item, "date_of_release"),
			text(item, "subject"), text(item, "description"),
			text(attrs, "srp"), text(attrs, "cost"), text(attrs, "avail"),
			text(attrs, "isbn"), text(attrs, "number_of_pages"),
			text(attrs, "backing"), text(dims, "length"),
			text(dims, "width"), text(dims, "height"),
		}); err != nil {
			return err
		}
		for a := item.Child("authors").Child("author"); !a.IsZero(); a = a.Sibling("author") {
			name := a.Child("name")
			ci := a.Child("contact_information")
			var addr xmldom.Ref
			phone, email := relational.Null, relational.Null
			if !ci.IsZero() {
				addr = ci.Child("mailing_address")
				phone = text(ci, "phone_number")
				email = text(ci, "email_address")
			}
			country := relational.Null
			if !addr.IsZero() {
				if co := addr.Child("name_of_country"); !co.IsZero() {
					country = string(co.Text())
				}
			}
			if err := s.insert("item_author_tab", relational.Row{
				id, text(name, "first_name"), text(name, "middle_name"),
				text(name, "last_name"), text(a, "date_of_birth"),
				text(a, "biography"), text(addr, "street_address1"),
				text(addr, "street_address2"), text(addr, "city"),
				text(addr, "state"), text(addr, "zip_code"), country,
				phone, email,
			}); err != nil {
				return err
			}
		}
		if pub := item.Child("publisher"); !pub.IsZero() {
			if err := s.insert("item_publisher_tab", relational.Row{
				id, text(pub, "name"), text(pub, "FAX_number"),
				text(pub, "phone_number"), text(pub, "email_address"),
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Store) shredDCMD(name string, root xmldom.Ref) error {
	switch string(root.Name()) {
	case "order":
		cc := root.Child("cc_xacts")
		if err := s.insert("order_tab", relational.Row{
			attr(root, "id"), text(root, "customer_id"), text(root, "order_date"),
			text(root, "sub_total"), text(root, "tax"), text(root, "total"),
			text(root, "ship_type"), text(root, "ship_date"),
			text(root, "ship_addr_id"), text(root, "order_status"),
			text(cc, "cc_type"), text(cc, "cc_number"), text(cc, "cc_name"),
			text(cc, "cc_expiry"), text(cc, "cc_auth_id"),
			text(cc, "total_amount"), text(cc, "ship_country"),
		}); err != nil {
			return err
		}
		oid, _ := root.Attr("id")
		for ol := root.Child("order_lines").Child("order_line"); !ol.IsZero(); ol = ol.Sibling("order_line") {
			if err := s.insert("order_line_tab", relational.Row{
				string(oid), text(ol, "item_id"), text(ol, "qty"),
				text(ol, "discount"), text(ol, "comment"),
			}); err != nil {
				return err
			}
		}
	case "customers":
		for c := root.Child("customer"); !c.IsZero(); c = c.Sibling("customer") {
			if err := s.insert("customer_tab", relational.Row{
				attr(c, "id"), text(c, "c_uname"), text(c, "c_fname"),
				text(c, "c_lname"), text(c, "c_phone"), text(c, "c_email"),
				text(c, "c_since"), text(c, "c_discount"), text(c, "c_addr_id"),
			}); err != nil {
				return err
			}
		}
	case "items":
		for it := root.Child("flat_item"); !it.IsZero(); it = it.Sibling("flat_item") {
			if err := s.insert("flat_item_tab", relational.Row{
				attr(it, "id"), text(it, "i_title"), text(it, "i_a_id"),
				text(it, "i_pub_date"), text(it, "i_publisher"),
				text(it, "i_subject"), text(it, "i_cost"), text(it, "i_isbn"),
				text(it, "i_page"),
			}); err != nil {
				return err
			}
		}
	case "authors":
		for a := root.Child("flat_author"); !a.IsZero(); a = a.Sibling("flat_author") {
			if err := s.insert("flat_author_tab", relational.Row{
				attr(a, "id"), text(a, "a_fname"), text(a, "a_lname"),
				text(a, "a_mname"), text(a, "a_dob"), text(a, "a_bio"),
			}); err != nil {
				return err
			}
		}
	case "addresses":
		for a := root.Child("address"); !a.IsZero(); a = a.Sibling("address") {
			if err := s.insert("address_tab", relational.Row{
				attr(a, "id"), text(a, "addr_street1"), text(a, "addr_street2"),
				text(a, "addr_city"), text(a, "addr_state"), text(a, "addr_zip"),
				text(a, "addr_co_id"),
			}); err != nil {
				return err
			}
		}
	case "countries":
		for c := root.Child("country"); !c.IsZero(); c = c.Sibling("country") {
			if err := s.insert("country_tab", relational.Row{
				attr(c, "id"), text(c, "co_name"), text(c, "co_exchange"),
				text(c, "co_currency"),
			}); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("shredder: unexpected DC/MD root <%s> in %s", root.Name(), name)
	}
	return nil
}

func (s *Store) shredDictionary(root xmldom.Ref) error {
	for e := root.Child("entry"); !e.IsZero(); e = e.Sibling("entry") {
		id := attr(e, "id")
		etym, _ := s.mixedText(e.Child("etym"))
		if err := s.insert("entry_tab", relational.Row{
			id, text(e, "hw"), text(e, "pr"), text(e, "pos"), etym,
		}); err != nil {
			return err
		}
		if et := e.Child("etym"); !et.IsZero() {
			for cr := et.Child("cr"); !cr.IsZero(); cr = cr.Sibling("cr") {
				if err := s.insert("cr_tab", relational.Row{
					id, attr(cr, "target"), string(cr.Text()),
				}); err != nil {
					return err
				}
			}
		}
		for si, sense := 1, e.Child("sense"); !sense.IsZero(); si, sense = si+1, sense.Sibling("sense") {
			senseNo := fmt.Sprint(si)
			if err := s.insert("sense_tab", relational.Row{
				id, senseNo, text(sense, "def"),
			}); err != nil {
				return err
			}
			for cr := sense.Child("cr"); !cr.IsZero(); cr = cr.Sibling("cr") {
				if err := s.insert("cr_tab", relational.Row{
					id, attr(cr, "target"), string(cr.Text()),
				}); err != nil {
					return err
				}
			}
			for qp := sense.Child("qp"); !qp.IsZero(); qp = qp.Sibling("qp") {
				for q := qp.Child("q"); !q.IsZero(); q = q.Sibling("q") {
					qt, _ := s.mixedText(q.Child("qt"))
					if err := s.insert("quote_tab", relational.Row{
						id, senseNo, text(q, "qd"), text(q, "a"),
						text(q, "loc"), qt,
					}); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

func (s *Store) shredArticle(name string, root xmldom.Ref) error {
	id := attr(root, "id")
	prolog := root.Child("prolog")
	date, country := relational.Null, relational.Null
	if dl := prolog.Child("dateline"); !dl.IsZero() {
		date = text(dl, "date")
		country = text(dl, "country")
	}
	hasAbstract := relational.Null
	if !prolog.Child("abstract").IsZero() {
		hasAbstract = "1"
	}
	if err := s.insert("article_tab", relational.Row{
		id, name, text(prolog, "title"), text(prolog, "genre"),
		date, country, hasAbstract,
	}); err != nil {
		return err
	}
	if ab := prolog.Child("abstract"); !ab.IsZero() {
		for para := ab.Child("p"); !para.IsZero(); para = para.Sibling("p") {
			if err := s.insert("abs_para_tab", relational.Row{id, string(para.Text())}); err != nil {
				return err
			}
		}
	}
	for a := prolog.Child("authors").Child("author"); !a.IsZero(); a = a.Sibling("author") {
		if err := s.insert("art_author_tab", relational.Row{
			id, text(a, "name"), text(a, "affiliation"),
			text(a, "contact"), text(a, "bio"),
		}); err != nil {
			return err
		}
	}
	if kws := prolog.Child("keywords"); !kws.IsZero() {
		for kw := kws.Child("kw"); !kw.IsZero(); kw = kw.Sibling("kw") {
			if err := s.insert("kw_tab", relational.Row{id, string(kw.Text())}); err != nil {
				return err
			}
		}
	}
	var shredSec func(sec xmldom.Ref, parent string) error
	shredSec = func(sec xmldom.Ref, parent string) error {
		sid := attr(sec, "id")
		if err := s.insert("sec_tab", relational.Row{
			sid, id, parent, text(sec, "heading"),
		}); err != nil {
			return err
		}
		for p := sec.Child("p"); !p.IsZero(); p = p.Sibling("p") {
			if err := s.insert("para_tab", relational.Row{sid, id, string(p.Text())}); err != nil {
				return err
			}
		}
		for sub := sec.Child("sec"); !sub.IsZero(); sub = sub.Sibling("sec") {
			if err := shredSec(sub, sid); err != nil {
				return err
			}
		}
		return nil
	}
	for sec := root.Child("body").Child("sec"); !sec.IsZero(); sec = sec.Sibling("sec") {
		if err := shredSec(sec, relational.Null); err != nil {
			return err
		}
	}
	if ep := root.Child("epilog"); !ep.IsZero() {
		if refs := ep.Child("references"); !refs.IsZero() {
			for r := refs.Child("a_id"); !r.IsZero(); r = r.Sibling("a_id") {
				if err := s.insert("ref_tab", relational.Row{id, attr(r, "target")}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
