package xmlschema

import "xbench/internal/core"

// dictionarySchema is the TC/SD class (paper Figure 1): one big
// dictionary.xml with numerous word entries, deep nesting and references
// between entries. The qt (quotation text) element carries mixed content.
var dictionarySchema = &Schema{
	Class:   core.TCSD,
	DocName: "dictionary.xml",
	tables:  []string{"entry_tab", "sense_tab", "quote_tab", "cr_tab"},
	Root: El("dictionary", One,
		El("entry", Many,
			TextEl("hw", One),  // headword — indexed per Table 3
			TextEl("pr", Opt),  // pronunciation
			TextEl("pos", One), // part of speech
			El("etym", Opt, // etymology with optional cross references
				TextEl("lang", Opt),
				crossRef,
			).WithMixed(),
			El("sense", Many,
				TextEl("def", One),
				crossRef,
				El("qp", Any, // quotation paragraph
					El("q", Many,
						TextEl("qd", One),  // quotation date
						TextEl("a", One),   // quotation author
						TextEl("loc", One), // quotation location
						El("qt", One, // quotation text, mixed content
							TextEl("i", Any),
							TextEl("b", Any),
						).WithMixed(),
					).Rows(Shredded, "quote_tab", "entry_id=key(entry_tab.id)",
						"sense_no=key(sense_tab.sense_no)", "qd", "a", "loc", "qt"),
				),
			).Rows(Shredded, "sense_tab", "entry_id=key(entry_tab.id)", "sense_no=position()", "def"),
		).WithAttrs("id").Rows(Shredded, "entry_tab", "@id", "hw", "pr", "pos", "etym"),
	),
}

// crossRef is a dictionary cross reference, in an etymology or a sense.
var crossRef = TextEl("cr", Any).WithAttrs("target").
	Rows(Shredded, "cr_tab", "entry_id=key(entry_tab.id)", "@target", "text=.")

// articleSchema is the TC/MD class (paper Figure 2): numerous relatively
// small text-centric articleXXX.xml documents with loose schemas, optional
// parts everywhere, recursive sections and references between documents.
var articleSchema = &Schema{
	Class:   core.TCMD,
	DocName: "articleXXX.xml",
	tables: []string{"article_tab", "abs_para_tab", "art_author_tab", "sec_tab", "para_tab",
		"kw_tab", "ref_tab", "article_side", "sec_side"},
	Root: El("article", One,
		El("prolog", One,
			TextEl("title", One),
			TextEl("genre", Opt),
			El("dateline", Opt,
				TextEl("date", One),
				TextEl("country", Opt),
			),
			El("authors", One,
				El("author", Many,
					TextEl("name", One),
					TextEl("affiliation", Opt),
					TextEl("contact", Opt), // may be empty — exercised by Q15
					TextEl("bio", Opt),
				).Rows(Shredded, "art_author_tab", "article_id=key(article_tab.id)",
					"name", "affiliation", "contact", "bio"),
			),
			El("abstract", Opt,
				TextEl("p", Many).Rows(Shredded, "abs_para_tab", "article_id=key(article_tab.id)", "text=."),
			),
			El("keywords", Opt,
				TextEl("kw", Many).Rows(Shredded, "kw_tab", "article_id=key(article_tab.id)", "kw=."),
			),
		),
		El("body", One,
			El("sec", Many,
				TextEl("heading", Opt),
				TextEl("p", Any).Rows(Shredded, "para_tab", "sec_id=key(sec_tab.id)",
					"article_id=key(article_tab.id)", "text=."),
			).WithRecursive().WithAttrs("id").
				Rows(Shredded, "sec_tab", "@id", "article_id=key(article_tab.id)",
					"parent_sec=key(sec_tab.id)", "heading").
				// Sections are numbered in document order, nested ones
				// included; top marks the body's own.
				Rows(DAD, "sec_side", "doc=doc()", "dxx_seqno=seqno()", "heading", "top=top()"),
		),
		El("epilog", Opt,
			El("references", Opt,
				TextEl("a_id", Many).WithAttrs("target").
					Rows(Shredded, "ref_tab", "article_id=key(article_tab.id)", "@target"),
			),
		),
	).WithAttrs("id").
		Rows(Shredded, "article_tab", "@id", // article/@id — indexed per Table 3
			"doc=doc()", "prolog/title", "prolog/genre", "prolog/dateline/date",
			"prolog/dateline/country", "has_abstract=exists(prolog/abstract)").
		Rows(DAD, "article_side", "doc=doc()", "@id", "prolog/title", "prolog/genre", "prolog/dateline/date"),
}

// catalogSchema is the DC/SD class (paper Figure 3): one catalog.xml built
// by recursively joining the TPC-W tables ITEM (base), AUTHOR, AUTHOR_2,
// PUBLISHER, ADDRESS and COUNTRY, which adds depth to the document.
var catalogSchema = &Schema{
	Class:   core.DCSD,
	DocName: "catalog.xml",
	tables:  []string{"item_tab", "item_author_tab", "item_publisher_tab"},
	Root: El("catalog", One,
		El("item", Many,
			TextEl("title", One),
			TextEl("date_of_release", One), // indexed per Table 3
			TextEl("subject", One),
			TextEl("description", Opt),
			El("attributes", One,
				TextEl("srp", One), // suggested retail price
				TextEl("cost", One),
				TextEl("avail", One),
				TextEl("isbn", One),
				TextEl("number_of_pages", One), // cast target of Q20
				TextEl("backing", One),
				El("dimensions", One,
					TextEl("length", One),
					TextEl("width", One),
					TextEl("height", One),
				),
			),
			El("authors", One,
				El("author", Many, // ITEM ⋈ AUTHOR ⋈ AUTHOR_2
					El("name", One,
						TextEl("first_name", One),
						TextEl("middle_name", Opt),
						TextEl("last_name", One),
					),
					TextEl("date_of_birth", Opt),
					TextEl("biography", Opt),
					El("contact_information", One, // from AUTHOR_2
						El("mailing_address", One, // AUTHOR_2 ⋈ ADDRESS ⋈ COUNTRY
							TextEl("street_address1", One),
							TextEl("street_address2", Opt),
							TextEl("city", One),
							TextEl("state", Opt),
							TextEl("zip_code", One),
							El("name_of_country", One), // from COUNTRY
						),
						TextEl("phone_number", Opt),
						TextEl("email_address", Opt),
					),
				).Rows(Shredded, "item_author_tab", "item_id=key(item_tab.id)",
					"name/first_name", "name/middle_name", "name/last_name", "date_of_birth",
					"biography", "contact_information/mailing_address/street_address1",
					"contact_information/mailing_address/street_address2",
					"contact_information/mailing_address/city",
					"contact_information/mailing_address/state",
					"contact_information/mailing_address/zip_code",
					"country=contact_information/mailing_address/name_of_country",
					"contact_information/phone_number", "contact_information/email_address"),
			),
			El("publisher", One, // from PUBLISHER
				TextEl("name", One),
				TextEl("FAX_number", Opt), // missing-element target of Q14
				TextEl("phone_number", One),
				TextEl("email_address", One),
			).Rows(Shredded, "item_publisher_tab", "item_id=key(item_tab.id)", "name",
				"fax_number=FAX_number", "phone_number", "email_address"),
		).WithAttrs("id").
			Rows(Shredded, "item_tab", "@id", // item/@id — indexed per Table 3
				"title", "date_of_release", "subject", "description", "attributes/srp",
				"attributes/cost", "attributes/avail", "attributes/isbn", "attributes/number_of_pages",
				"attributes/backing", "attributes/dimensions/length", "attributes/dimensions/width",
				"attributes/dimensions/height"),
	),
}

// orderSchema is the DC/MD class (paper Figure 4): one orderXXX.xml per
// order, joining ORDERS ⋈ ORDER_LINE (1:n) ⋈ CC_XACTS (1:1); plus the five
// flat-translation (FT) documents Customer, Item, Author, Address, Country
// where each tuple becomes an element instance and every column a
// sub-element. CC_XACTS is 1:1 with its order and folds into order_tab.
var orderSchema = &Schema{
	Class:   core.DCMD,
	DocName: "orderXXX.xml",
	tables: []string{"order_tab", "order_line_tab", "customer_tab", "flat_item_tab",
		"flat_author_tab", "address_tab", "country_tab", "order_side", "line_side", "customer_side"},
	Root: El("order", One,
		TextEl("customer_id", One),
		TextEl("order_date", One),
		TextEl("sub_total", One),
		TextEl("tax", One),
		TextEl("total", One),
		TextEl("ship_type", One),
		TextEl("ship_date", One),
		TextEl("ship_addr_id", One),
		El("order_status", One), // empty-able status element; Q9 target
		El("cc_xacts", One, // ORDERS 1:1 CC_XACTS
			TextEl("cc_type", One),
			TextEl("cc_number", One),
			TextEl("cc_name", One),
			TextEl("cc_expiry", One),
			TextEl("cc_auth_id", One),
			TextEl("total_amount", One),
			TextEl("ship_country", Opt),
		),
		El("order_lines", One, // ORDERS 1:n ORDER_LINE
			El("order_line", Many,
				TextEl("item_id", One),
				TextEl("qty", One),
				TextEl("discount", One),
				TextEl("comment", Opt),
			).Rows(Shredded, "order_line_tab", "order_id=key(order_tab.id)", "item_id", "qty",
				"discount", "comment").
				Rows(DAD, "line_side", "doc=doc()", "dxx_seqno=seqno()", "item_id", "comment"),
		),
	).WithAttrs("id").
		Rows(Shredded, "order_tab", "@id", // order/@id — indexed per Table 3
			"customer_id", "order_date", "sub_total", "tax", "total", "ship_type", "ship_date",
			"ship_addr_id", "order_status", "cc_xacts/cc_type", "cc_xacts/cc_number",
			"cc_xacts/cc_name", "cc_xacts/cc_expiry", "cc_xacts/cc_auth_id", "cc_xacts/total_amount",
			"cc_xacts/ship_country").
		Rows(DAD, "order_side", "doc=doc()", "@id", "order_date", "ship_type", "order_status",
			"cc_xacts/ship_country"),
	ExtraRoots: []*Elem{
		El("customers", One,
			El("customer", Many,
				TextEl("c_uname", One),
				TextEl("c_fname", One),
				TextEl("c_lname", One),
				TextEl("c_phone", One),
				TextEl("c_email", One),
				TextEl("c_since", One),
				TextEl("c_discount", One),
				TextEl("c_addr_id", One),
			).WithAttrs("id").
				Rows(Shredded, "customer_tab", "@id", "c_uname", "c_fname", "c_lname", "c_phone",
					"c_email", "c_since", "c_discount", "c_addr_id").
				Rows(DAD, "customer_side", "doc=doc()", "dxx_seqno=seqno()", "@id", "c_fname",
					"c_lname", "c_phone"),
		),
		El("items", One,
			El("flat_item", Many,
				TextEl("i_title", One),
				TextEl("i_a_id", One),
				TextEl("i_pub_date", One),
				TextEl("i_publisher", One),
				TextEl("i_subject", One),
				TextEl("i_cost", One),
				TextEl("i_isbn", One),
				TextEl("i_page", One),
			).WithAttrs("id").
				Rows(Shredded, "flat_item_tab", "@id", "i_title", "i_a_id", "i_pub_date",
					"i_publisher", "i_subject", "i_cost", "i_isbn", "i_page"),
		),
		El("authors", One,
			El("flat_author", Many,
				TextEl("a_fname", One),
				TextEl("a_lname", One),
				TextEl("a_mname", Opt),
				TextEl("a_dob", One),
				TextEl("a_bio", One),
			).WithAttrs("id").
				Rows(Shredded, "flat_author_tab", "@id", "a_fname", "a_lname", "a_mname",
					"a_dob", "a_bio"),
		),
		El("addresses", One,
			El("address", Many,
				TextEl("addr_street1", One),
				TextEl("addr_street2", Opt),
				TextEl("addr_city", One),
				TextEl("addr_state", One),
				TextEl("addr_zip", One),
				TextEl("addr_co_id", One),
			).WithAttrs("id").
				Rows(Shredded, "address_tab", "@id", "addr_street1", "addr_street2",
					"addr_city", "addr_state", "addr_zip", "addr_co_id"),
		),
		El("countries", One,
			El("country", Many,
				TextEl("co_name", One),
				TextEl("co_exchange", One),
				TextEl("co_currency", One),
			).WithAttrs("id").
				Rows(Shredded, "country_tab", "@id", "co_name", "co_exchange", "co_currency"),
		),
	},
}
