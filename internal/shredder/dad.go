package shredder

import (
	"strconv"

	"xbench/internal/core"
	"xbench/internal/relational"
	"xbench/internal/xmldom"
)

// dad is DB2 Xcolumn's document access definition: per class, the side
// tables holding the searchable elements and attributes of the documents
// Xcolumn keeps intact as CLOBs (paper §3.1.1), as schema does it. Every
// side table's first column, doc, names the CLOB a row came from, and
// dxx_seqno numbers a repeating element in document order.
var dad = map[core.Class][][]string{
	core.DCMD: {
		{"order_side", "doc", "id", "order_date", "ship_type", "order_status", "ship_country"},
		{"line_side", "doc", "dxx_seqno", "item_id", "comment"},
		{"customer_side", "doc", "dxx_seqno", "id", "c_fname", "c_lname", "c_phone"},
	},
	core.TCMD: {
		{"article_side", "doc", "id", "title", "genre", "date"},
		{"sec_side", "doc", "dxx_seqno", "heading", "top"},
	},
}

// dadIndexes maps a Table 3 index target to the side table whose id
// column it lands on.
var dadIndexes = map[core.Class]map[string]string{
	core.DCMD: {"order/@id": "order_side"},
	core.TCMD: {"article/@id": "article_side"},
}

// CreateSideTables creates the side tables of class's DAD in db.
func CreateSideTables(class core.Class, db *relational.DB) {
	for _, t := range dad[class] {
		db.Create(t[0], t[1:]...)
	}
}

// SideColumn maps a Table 3 index target to the side-table column it
// lands on, as TargetColumn does for the shredded schema.
func SideColumn(class core.Class, target string) (table, col string, ok bool) {
	table, ok = dadIndexes[class][target]
	return table, "id", ok
}

// InsertSideRows inserts the side-table rows of the parsed document doc,
// stored as the CLOB ref, and returns how many it inserted. A document
// whose root the DAD does not name gets none.
func InsertSideRows(db *relational.DB, class core.Class, ref string, doc *xmldom.Node) (int, error) {
	rows := 0
	ins := func(table string, row ...string) error {
		rows++
		return db.Table(table).Insert(row)
	}
	root := doc.Root()
	id, _ := root.Attr("id")
	switch {
	case class == core.DCMD && root.Name == "order":
		if err := ins("order_side", ref, id, text(root, "order_date"), text(root, "ship_type"),
			text(root, "order_status"), text(root.FirstChild("cc_xacts"), "ship_country")); err != nil {
			return rows, err
		}
		for i, ol := range root.FirstChild("order_lines").ChildElements("order_line") {
			if err := ins("line_side", ref, strconv.Itoa(i+1), text(ol, "item_id"), text(ol, "comment")); err != nil {
				return rows, err
			}
		}
	case class == core.DCMD && root.Name == "customers":
		for i, c := range root.ChildElements("customer") {
			cid, _ := c.Attr("id")
			if err := ins("customer_side", ref, strconv.Itoa(i+1), cid, text(c, "c_fname"),
				text(c, "c_lname"), text(c, "c_phone")); err != nil {
				return rows, err
			}
		}
	case class == core.TCMD && root.Name == "article":
		prolog := root.FirstChild("prolog")
		if err := ins("article_side", ref, id, text(prolog, "title"), text(prolog, "genre"),
			text(prolog.FirstChild("dateline"), "date")); err != nil {
			return rows, err
		}
		// Sections are numbered in document order, nested ones included;
		// top marks the body's own.
		seq := 0
		var walk func(sec *xmldom.Node, top string) error
		walk = func(sec *xmldom.Node, top string) error {
			seq++
			if err := ins("sec_side", ref, strconv.Itoa(seq), text(sec, "heading"), top); err != nil {
				return err
			}
			for _, sub := range sec.ChildElements("sec") {
				if err := walk(sub, "0"); err != nil {
					return err
				}
			}
			return nil
		}
		for _, sec := range root.FirstChild("body").ChildElements("sec") {
			if err := walk(sec, "1"); err != nil {
				return rows, err
			}
		}
	}
	return rows, nil
}
