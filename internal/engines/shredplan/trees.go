package shredplan

import (
	"xbench/internal/core"
	"xbench/internal/xmlschema"
)

// cell names a query of a class.
type cell struct {
	class core.Class
	q     core.QueryID
}

// trees holds each mapping's translation of the workload.
var trees = [...]map[cell]*Node{xmlschema.Shredded: shreddedTrees, xmlschema.DAD: xcolumnTrees}

// shreddedTrees is the hand translation of the workload onto the shredded
// schema: one operator tree per (class, query) the mapping can answer.
// Each reads the tables, in the order and through the calls, its
// translation does — the paper's per-system SQL, as data.
var shreddedTrees = map[cell]*Node{
	// DC/SD: items, with their authors and publishers in tables of their
	// own. The whole item rebuilds exactly: the class has no mixed content.
	{core.DCSD, core.Q1}: rebuild(item(), first(probe("item_tab", "id", "$X")),
		lookup("item_author_tab", "item_id", "id"), lookup("item_publisher_tab", "item_id", "id")),
	{core.DCSD, core.Q2}: emit(leaf("title"), semi([]string{"item_id", "id"},
		probe("item_author_tab", "last_name", "$Y"), scan("item_tab"))),
	{core.DCSD, core.Q3}: emit(value("number_of_pages"), agg(aggAvg, "number_of_pages", scan("item_tab"))),
	// The first author in insertion order: no order column survived the
	// mapping. The planner's limit pushdown fetches only that row.
	{core.DCSD, core.Q5}: rebuild(author(), first(probe("item_author_tab", "item_id", "$X"))),
	{core.DCSD, core.Q6}: emit(value("id"), semi([]string{"item_id", "id"},
		filter(eq("country", "$Z"), scan("item_author_tab")), scan("item_tab"))),
	{core.DCSD, core.Q7}: emit(leaf("title"), semiEvery(eq("country", "$Z"), []string{"item_id", "id"},
		scan("item_author_tab"), scan("item_tab"))),
	{core.DCSD, core.Q8}: emit(leaf("isbn"), probe("item_tab", "id", "$X")),
	// A range probe returns date order: document order is the tie-breaker
	// under the subject (ORDER BY subject, id).
	{core.DCSD, core.Q10}: emit(elem("r", attr("id"), leaf("subject")),
		sortBy(rng("item_tab", "date_of_release", "$LO", "$HI"), "subject", "#id")),
	{core.DCSD, core.Q12}: rebuild(mailingAddress(), first(probe("item_author_tab", "item_id", "$X"))),
	// The missing FAX_number has no index (§3.2.3): the publishers of the
	// items in range are found by scanning them.
	{core.DCSD, core.Q14}: emit(leaf("name"), semi([]string{"id", "item_id"},
		rng("item_tab", "date_of_release", "$LO", "$HI"), filter(isNull("fax_number"), scan("item_publisher_tab")))),
	{core.DCSD, core.Q17}: emit(leaf("title"), filter(word("$W2", "description"), scan("item_tab"))),
	{core.DCSD, core.Q20}: emit(leaf("title"), filter(gt("number_of_pages", "$N"), scan("item_tab"))),

	// DC/MD: orders and their lines; CC_XACTS folded into the order row.
	{core.DCMD, core.Q1}: emit(leaf("total"), probe("order_tab", "id", "$X")),
	{core.DCMD, core.Q2}: emit(value("id"), semi([]string{"order_id", "id"},
		filter(eq("item_id", "$I"), scan("order_line_tab")), scan("order_tab"))),
	// No Table 3 index on order_date: the window is a scan, summed in scan
	// order — document order, so the float matches the native engine's.
	{core.DCMD, core.Q3}: emit(value("total"), agg(aggSum, "total",
		filter(between("order_date", "$LO", "$HI"), scan("order_tab")))),
	{core.DCMD, core.Q5}: rebuild(orderLine(), first(probe("order_line_tab", "order_id", "$X"))),
	{core.DCMD, core.Q6}: emit(value("id"), semi([]string{"order_id", "id"},
		filter(ge("qty", "5"), scan("order_line_tab")), scan("order_tab"))),
	{core.DCMD, core.Q8}:  emit(leaf("item_id"), probe("order_line_tab", "order_id", "$X")),
	{core.DCMD, core.Q9}:  emit(leaf("order_status"), probe("order_tab", "id", "$X")),
	{core.DCMD, core.Q10}: emit(orderDate(), sortBy(rng("order_tab", "order_date", "$LO", "$HI"), "ship_type", "#id")),
	{core.DCMD, core.Q12}: rebuild(ccXacts(), first(probe("order_tab", "id", "$X"))),
	{core.DCMD, core.Q14}: emit(value("id"), filter(isNull("ship_country"), rng("order_tab", "order_date", "$LO", "$HI"))),
	{core.DCMD, core.Q15}: emit(value("id"), filter(eq("order_status", ""), scan("order_tab"))),
	// The whole order document: the multi-table reconstruction the paper
	// describes.
	{core.DCMD, core.Q16}: rebuild(order(), first(probe("order_tab", "id", "$X")),
		lookup("order_line_tab", "order_id", "id")),
	{core.DCMD, core.Q17}: emit(value("order_id"), agg(aggDistinct, "order_id",
		filter(word("$W2", "comment"), scan("order_line_tab")))),
	// Join-reordered by the planner: the probed order is the outer side,
	// each match probing the customers' key index.
	{core.DCMD, core.Q19}: emit(orderCustomer(), join(probe("order_tab", "id", "$X"), lookup("customer_tab", "id", "customer_id"))),

	// TC/SD: entries, senses, quotes and cross references. The sense_no
	// column (§3.1.3 item 4) stands in for document order; the qp grouping
	// and inline markup are gone.
	{core.TCSD, core.Q1}: rebuild(entry(), first(probe("entry_tab", "hw", "$W")),
		lookup("sense_tab", "entry_id", "id"), lookup("quote_tab", "entry_id", "id"), lookup("cr_tab", "entry_id", "id")),
	{core.TCSD, core.Q2}: emit(leaf("hw"), semi([]string{"entry_id", "id"},
		filter(eq("a", "$Y"), scan("quote_tab")), scan("entry_tab"))),
	{core.TCSD, core.Q5}: rebuild(elem("sense", leaf("def"), qp(0)),
		first(join(first(probe("entry_tab", "hw", "$W")), lookup("sense_tab", "entry_id", "id"))),
		lookup("quote_tab", "entry_id", "id")),
	{core.TCSD, core.Q8}: emit(str("qt", "qt"), join(first(probe("entry_tab", "hw", "$W")), lookup("quote_tab", "entry_id", "id"))),
	{core.TCSD, core.Q11}: emit(elem("r", leaf("a"), leaf("qd")),
		sortBy(join(first(probe("entry_tab", "hw", "$W")), lookup("quote_tab", "entry_id", "id")), "qd")),
	{core.TCSD, core.Q12}: rebuild(nonEmpty(elem("qp", each(0, quote()))), first(probe("entry_tab", "hw", "$W")),
		lookup("quote_tab", "entry_id", "id").where(eq("sense_no", "1"))),
	{core.TCSD, core.Q14}: emit(leaf("hw"), filter(isNull("etym"), scan("entry_tab"))),
	// Text search scans every table holding entry text.
	{core.TCSD, core.Q17}: emit(leaf("hw"), semiOr(word("$W2", "hw", "etym"), []string{"id", "entry_id", "entry_id"},
		scan("entry_tab"), filter(word("$W2", "def"), scan("sense_tab")), filter(word("$W2", "qt", "a", "loc"), scan("quote_tab")))),
	{core.TCSD, core.Q18}: emit(leaf("hw"), semi([]string{"entry_id", "entry_id", "id"},
		filter(phrase("def", "$PHRASE"), scan("sense_tab")), filter(phrase("qt", "$PHRASE"), scan("quote_tab")), scan("entry_tab"))),

	// TC/MD: articles, their sections, paragraphs, authors and keywords.
	{core.TCMD, core.Q1}: emit(leaf("title"), probe("article_tab", "id", "$X")),
	{core.TCMD, core.Q2}: emit(leaf("title"), semi([]string{"article_id", "id"},
		filter(eq("name", "$Y"), scan("art_author_tab")), scan("article_tab"))),
	{core.TCMD, core.Q3}: emit(elem("group", str("genre", "genre"), str("cnt", "count")),
		sortBy(agg(aggCount, "genre", scan("article_tab")), "genre")),
	// sec[1]: the first top-level section; the limit is above the filter,
	// so the probe reads every section of the article.
	{core.TCMD, core.Q5}: emit(leaf("heading"), first(filter(isNull("parent_sec"), probe("sec_tab", "article_id", "$X")))),
	{core.TCMD, core.Q8}: emit(leaf("heading"), filter(isNull("parent_sec"), probe("sec_tab", "article_id", "$X"))),
	// The abstract's paragraphs have a table of their own, so it rebuilds
	// exactly.
	{core.TCMD, core.Q12}: rebuild(ifNotNull("has_abstract", abstract(0)), first(probe("article_tab", "id", "$X")),
		lookup("abs_para_tab", "article_id", "id").ifNotNull("has_abstract")),
	{core.TCMD, core.Q13}: emit(elem("summary", str("title", "title"), elem("first-author", eachFirst(0, text("name"))),
		str("date", "date"), ifNotNull("has_abstract", abstract(1))),
		first(probe("article_tab", "id", "$X")),
		lookup("art_author_tab", "article_id", "id"), lookup("abs_para_tab", "article_id", "id").ifNotNull("has_abstract")),
	{core.TCMD, core.Q14}: emit(leaf("title"), filter(isNull("genre"), rng("article_tab", "date", "$LO", "$HI"))),
	{core.TCMD, core.Q15}: emit(leaf("name"), semi([]string{"id", "article_id"},
		filter(between("date", "$LO", "$HI"), scan("article_tab")), filter(eq("contact", ""), scan("art_author_tab")))),
	{core.TCMD, core.Q17}: emit(leaf("title"), semiOr(word("$W2", "title"),
		[]string{"id", "article_id", "article_id", "article_id", "article_id", "article_id"},
		scan("article_tab"), filter(word("$W2", "text"), scan("abs_para_tab")), filter(word("$W2", "text"), scan("para_tab")),
		filter(word("$W2", "name", "affiliation", "bio"), scan("art_author_tab")),
		filter(word("$W2", "kw"), scan("kw_tab")), filter(word("$W2", "heading"), scan("sec_tab")))),
}

// xcolumnTrees is the hand translation onto Xcolumn's side tables and
// CLOBs (§3.1.1): what the side tables hold is answered from them, and
// the rest is read from the documents, found through their side-table
// row and parsed (clob). Each reads the side tables and the CLOBs, in the
// order and through the calls, of the arm it replaced.
var xcolumnTrees = map[cell]*Node{
	{core.DCMD, core.Q1}:  emit(value("order/total"), clobOf("order_side", "order/total")),
	{core.DCMD, core.Q5}:  emit(value("order/order_lines/order_line"), first(clobOf("order_side", "order/order_lines/order_line"))),
	{core.DCMD, core.Q8}:  emit(value("order/order_lines/order_line/item_id"), clobOf("order_side", "order/order_lines/order_line/item_id")),
	{core.DCMD, core.Q9}:  emit(value("order/order_status"), clobOf("order_side", "order/order_status")),
	{core.DCMD, core.Q10}: emit(orderDate(), sortBy(rng("order_side", "order_date", "$LO", "$HI"), "ship_type", "#id")),
	{core.DCMD, core.Q12}: emit(value("order/cc_xacts"), clobOf("order_side", "order/cc_xacts")),
	{core.DCMD, core.Q14}: emit(value("id"), filter(isNull("ship_country"), rng("order_side", "order_date", "$LO", "$HI"))),
	{core.DCMD, core.Q16}: emit(value("order"), clobOf("order_side", "order")),
	// No full-text side table: every CLOB is scanned (the Table 7 blow-up),
	// and an order answers once, however many of its comments hold the word.
	{core.DCMD, core.Q17}: emit(value("order/@id"), agg(aggDistinct, "doc", filter(word("$W2", comment),
		clobs("$W2", "order/order_lines/order_line/comment", "order/@id", comment)))),
	// customer_side has no index on id: the customer is the first match of
	// a scan.
	{core.DCMD, core.Q19}: emit(orderCustomer(), join(clobOf("order_side", "order/customer_id", "string(order/customer_id)"),
		seek("customer_side", "id", "string(order/customer_id)", 1))),

	{core.TCMD, core.Q1}: emit(leaf("title"), probe("article_side", "id", "$X")),
	// sec[1]: the first top-level section, no item when it has no heading.
	{core.TCMD, core.Q5}:  emit(leaf("heading"), first(filter(eq("top", "1"), sections()))),
	{core.TCMD, core.Q8}:  emit(leaf("heading"), filter(eq("top", "1"), sections())),
	{core.TCMD, core.Q12}: emit(value("article/prolog/abstract"), clobOf("article_side", "article/prolog/abstract")),
	{core.TCMD, core.Q14}: emit(leaf("title"), filter(isNull("genre"), rng("article_side", "date", "$LO", "$HI"))),
	{core.TCMD, core.Q17}: emit(value("article/prolog/title"), filter(word("$W2", "string(article)"),
		clobs("$W2", "article/prolog/title", "string(article)", "article/prolog/title"))),
}

// comment is the string value of an order line's comment.
const comment = "string(order/order_lines/order_line/comment)"

// clobOf reads, along path, the CLOB of the first row of table whose id is
// $X: the side-table probe fetches every row of the key, as the plan's
// access path has them, and the first names the document.
func clobOf(table, path string, picks ...string) *Node {
	return clob(path, head(probe(table, "id", "$X")), picks...)
}

// sections are the sections of article $X, in the order a scan of
// sec_side meets them. The DAD gives sec_side no doc index, so finding
// them is a scan of every section; the index the first update builds is
// not part of the modeled system, and the seek does not use it.
func sections() *Node {
	return join(head(probe("article_side", "id", "$X")), seek("sec_side", "doc", "doc", 0))
}

func orderDate() *tmpl {
	return elem("r", str("id", "id"), str("date", "order_date"), str("ship", "ship_type"))
}

func orderCustomer() *tmpl {
	return elem("r", elem("name", text("c_fname"), lit(" "), text("c_lname")),
		str("phone", "c_phone"), str("status", "order_status"))
}

// The stored fragments the templates rebuild, element for element in the
// generators' order.

func item() *tmpl {
	return elem("item", attr("id"), leaf("title"), leaf("date_of_release"), leaf("subject"), leaf("description"),
		elem("attributes", leaf("srp"), leaf("cost"), leaf("avail"), leaf("isbn"), leaf("number_of_pages"), leaf("backing"),
			elem("dimensions", leaf("length"), leaf("width"), leaf("height"))),
		elem("authors", each(0, author())),
		each(1, elem("publisher", leaf("name"), leafOf("FAX_number", "fax_number"), leaf("phone_number"), leaf("email_address"))))
}

func author() *tmpl {
	return elem("author", elem("name", leaf("first_name"), leaf("middle_name"), leaf("last_name")),
		leaf("date_of_birth"), leaf("biography"),
		elem("contact_information", mailingAddress(), leaf("phone_number"), leaf("email_address")))
}

func mailingAddress() *tmpl {
	return elem("mailing_address", leaf("street_address1"), leaf("street_address2"), leaf("city"),
		leaf("state"), leaf("zip_code"), leafOf("name_of_country", "country"))
}

func order() *tmpl {
	return elem("order", attr("id"), leaf("customer_id"), leaf("order_date"), leaf("sub_total"), leaf("tax"),
		leaf("total"), leaf("ship_type"), leaf("ship_date"), leaf("ship_addr_id"), leaf("order_status"),
		ccXacts(), elem("order_lines", each(0, orderLine())))
}

func orderLine() *tmpl {
	return elem("order_line", leaf("item_id"), leaf("qty"), leaf("discount"), leaf("comment"))
}

func ccXacts() *tmpl {
	return elem("cc_xacts", leaf("cc_type"), leaf("cc_number"), leaf("cc_name"), leaf("cc_expiry"),
		leaf("cc_auth_id"), leaf("total_amount"), leaf("ship_country"))
}

func entry() *tmpl {
	return elem("entry", attr("id"), leaf("hw"), leaf("pr"), leaf("pos"), leaf("etym"),
		each(0, elem("sense", leaf("def"), qp(1))),
		each(2, elem("cr", attr("target"), text("text"))))
}

// qp regroups under a sense the quotes lookup from found with its
// sense_no; a sense without quotes has no qp.
func qp(from int) *tmpl {
	return nonEmpty(elem("qp", eachWith(from, "sense_no", "sense_no", quote())))
}

func quote() *tmpl {
	return elem("q", leaf("qd"), leaf("a"), leaf("loc"), str("qt", "qt"))
}

func abstract(from int) *tmpl {
	return elem("abstract", each(from, elem("p", text("text"))))
}
