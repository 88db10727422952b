// Package queries holds the XBench workload catalog: the XQuery
// instantiation of each abstract query type (Q1..Q20) for each database
// class, plus the value indexes of paper Table 3. It says what a query
// computes; which index answers it is the planner's decision
// (internal/plan).
//
// The paper specifies the 20 query types abstractly and maps each to a
// concrete query per applicable class; not every class instantiates every
// type (paper §2.2). Parameters appear as external variables ($X, $W, $Y,
// $Z, $LO/$HI, $N, $DOC, ...) bound at execution time.
package queries

import (
	"xbench/internal/core"
)

// Def is one concrete workload query.
type Def struct {
	ID    core.QueryID
	Class core.Class
	// XQuery is the query text run by the native engine.
	XQuery string
	// Params lists the external variable names the query requires.
	Params []string
	// OrderSensitive marks queries whose correctness depends on document
	// order (the paper's Q5/Q12 caveat for shredded engines).
	OrderSensitive bool
	// TouchesMixed marks queries whose result includes mixed-content
	// element text (lost by the SQL Server mapping).
	TouchesMixed bool
}

// Lookup returns the query definition for (class, id), or nil when the
// class does not instantiate that query type.
func Lookup(class core.Class, id core.QueryID) *Def {
	for i := range catalog {
		d := &catalog[i]
		if d.Class == class && d.ID == id {
			return d
		}
	}
	return nil
}

// ForClass returns all queries defined for a class, in Q-number order.
func ForClass(class core.Class) []*Def {
	var out []*Def
	for q := core.Q1; q <= core.Q20; q++ {
		if d := Lookup(class, q); d != nil {
			out = append(out, d)
		}
	}
	return out
}

// Indexes reproduces paper Table 3: the value indexes per class.
func Indexes(class core.Class) []core.IndexSpec {
	switch class {
	case core.TCSD:
		return []core.IndexSpec{{Class: class, Target: "hw"}}
	case core.TCMD:
		return []core.IndexSpec{{Class: class, Target: "article/@id"}}
	case core.DCSD:
		return []core.IndexSpec{
			{Class: class, Target: "item/@id"},
			{Class: class, Target: "date_of_release"},
		}
	case core.DCMD:
		return []core.IndexSpec{{Class: class, Target: "order/@id"}}
	}
	return nil
}

var catalog = []Def{
	// ---------------------------------------------------------------- TC/SD
	{ID: core.Q1, Class: core.TCSD,
		XQuery: `//entry[hw = $W]`,
		Params: []string{"W"}},
	{ID: core.Q2, Class: core.TCSD,
		XQuery: `//entry[sense/qp/q/a = $Y]/hw`,
		Params: []string{"Y"}},
	{ID: core.Q3, Class: core.TCSD,
		XQuery: `for $l in distinct-values(//loc) order by $l
		         return <group><loc>{$l}</loc><cnt>{count(//entry[.//loc = $l])}</cnt></group>`},
	{ID: core.Q5, Class: core.TCSD,
		XQuery: `//entry[hw = $W]/sense[1]`,
		Params: []string{"W"}, OrderSensitive: true},
	{ID: core.Q6, Class: core.TCSD,
		XQuery: `//entry[some $q in .//q satisfies ($q/a = $Y and $q/loc = $L)]/hw`,
		Params: []string{"Y", "L"}},
	{ID: core.Q7, Class: core.TCSD,
		XQuery: `//entry[every $q in .//q satisfies $q/qd >= $LO]/hw`,
		Params: []string{"LO"}},
	{ID: core.Q8, Class: core.TCSD,
		XQuery: `//entry[hw = $W]/*/qp/q/qt`,
		Params: []string{"W"}, TouchesMixed: true},
	{ID: core.Q9, Class: core.TCSD,
		XQuery: `//entry[hw = $W]//qt`,
		Params: []string{"W"}, TouchesMixed: true},
	{ID: core.Q11, Class: core.TCSD,
		XQuery: `for $q in //entry[hw = $W]//q order by $q/qd
		         return <r>{$q/a}{$q/qd}</r>`,
		Params: []string{"W"}},
	{ID: core.Q12, Class: core.TCSD,
		XQuery: `//entry[hw = $W]/sense[1]/qp[1]`,
		Params: []string{"W"}, OrderSensitive: true, TouchesMixed: true},
	{ID: core.Q13, Class: core.TCSD,
		XQuery: `for $e in //entry[hw = $W]
		         return <word><head>{string($e/hw)}</head><sounds>{string($e/pr)}</sounds><first-def>{string($e/sense[1]/def)}</first-def></word>`,
		Params: []string{"W"}},
	{ID: core.Q14, Class: core.TCSD,
		XQuery: `//entry[empty(etym)]/hw`},
	{ID: core.Q17, Class: core.TCSD,
		XQuery: `//entry[contains-word(string(.), $W2)]/hw`,
		Params: []string{"W2"}, TouchesMixed: true},
	{ID: core.Q18, Class: core.TCSD,
		XQuery: `//entry[contains(string(.), $PHRASE)]/hw`,
		Params: []string{"PHRASE"}},

	// ---------------------------------------------------------------- TC/MD
	{ID: core.Q1, Class: core.TCMD,
		XQuery: `//article[@id = $X]/prolog/title`,
		Params: []string{"X"}},
	{ID: core.Q2, Class: core.TCMD,
		XQuery: `//article[prolog/authors/author/name = $Y]/prolog/title`,
		Params: []string{"Y"}},
	{ID: core.Q3, Class: core.TCMD,
		XQuery: `for $g in distinct-values(//genre) order by $g
		         return <group><genre>{$g}</genre><cnt>{count(//article[prolog/genre = $g])}</cnt></group>`},
	{ID: core.Q4, Class: core.TCMD,
		XQuery: `//article[prolog/authors/author/name = $Y]/body/sec[heading = "Introduction"]/following-sibling::sec[1]/heading`,
		Params: []string{"Y"}, OrderSensitive: true},
	{ID: core.Q5, Class: core.TCMD,
		XQuery: `//article[@id = $X]/body/sec[1]/heading`,
		Params: []string{"X"}, OrderSensitive: true},
	{ID: core.Q6, Class: core.TCMD,
		XQuery: `//article[some $p in .//p satisfies (contains-word(string($p), $K1) and contains-word(string($p), $K2))]/prolog/title`,
		Params: []string{"K1", "K2"}},
	{ID: core.Q7, Class: core.TCMD,
		XQuery: `//article[every $a in prolog/authors/author satisfies exists($a/contact)]/prolog/title`},
	{ID: core.Q8, Class: core.TCMD,
		XQuery: `//article[@id = $X]/*/sec/heading`,
		Params: []string{"X"}},
	{ID: core.Q9, Class: core.TCMD,
		XQuery: `//article[@id = $X]//heading`,
		Params: []string{"X"}},
	{ID: core.Q12, Class: core.TCMD,
		XQuery: `//article[@id = $X]/prolog/abstract`,
		Params: []string{"X"}, OrderSensitive: true},
	{ID: core.Q13, Class: core.TCMD,
		XQuery: `for $a in //article[@id = $X]
		         return <summary><title>{string($a/prolog/title)}</title><first-author>{string($a/prolog/authors/author[1]/name)}</first-author><date>{string($a/prolog/dateline/date)}</date>{$a/prolog/abstract}</summary>`,
		Params: []string{"X"}},
	{ID: core.Q14, Class: core.TCMD,
		XQuery: `//article[prolog/dateline/date >= $LO and prolog/dateline/date <= $HI][empty(prolog/genre)]/prolog/title`,
		Params: []string{"LO", "HI"}},
	{ID: core.Q15, Class: core.TCMD,
		XQuery: `//article[prolog/dateline/date >= $LO and prolog/dateline/date <= $HI]//author[contact = ""]/name`,
		Params: []string{"LO", "HI"}},
	{ID: core.Q16, Class: core.TCMD,
		XQuery: `doc($DOC)`,
		Params: []string{"DOC"}},
	{ID: core.Q17, Class: core.TCMD,
		XQuery: `//article[contains-word(string(.), $W2)]/prolog/title`,
		Params: []string{"W2"}},
	{ID: core.Q18, Class: core.TCMD,
		XQuery: `for $a in //article[contains(string(.), $PHRASE)]
		         return <hit>{$a/prolog/title}{$a/prolog/abstract}</hit>`,
		Params: []string{"PHRASE"}},

	// ---------------------------------------------------------------- DC/SD
	{ID: core.Q1, Class: core.DCSD,
		XQuery: `//item[@id = $X]`,
		Params: []string{"X"}},
	{ID: core.Q2, Class: core.DCSD,
		XQuery: `//item[authors/author/name/last_name = $Y]/title`,
		Params: []string{"Y"}},
	{ID: core.Q3, Class: core.DCSD,
		XQuery: `avg(//item/attributes/number_of_pages)`},
	{ID: core.Q5, Class: core.DCSD,
		XQuery: `//item[@id = $X]/authors/author[1]`,
		Params: []string{"X"}, OrderSensitive: true},
	{ID: core.Q6, Class: core.DCSD,
		XQuery: `//item[some $a in authors/author satisfies $a/contact_information/mailing_address/name_of_country = $Z]/@id`,
		Params: []string{"Z"}},
	{ID: core.Q7, Class: core.DCSD,
		XQuery: `//item[every $a in authors/author satisfies $a/contact_information/mailing_address/name_of_country = $Z]/title`,
		Params: []string{"Z"}},
	{ID: core.Q8, Class: core.DCSD,
		XQuery: `//item[@id = $X]/*/isbn`,
		Params: []string{"X"}},
	{ID: core.Q9, Class: core.DCSD,
		XQuery: `//item[@id = $X]//name_of_country`,
		Params: []string{"X"}},
	{ID: core.Q10, Class: core.DCSD,
		XQuery: `for $i in //item[date_of_release >= $LO and date_of_release <= $HI]
		         order by $i/subject
		         return <r id="{$i/@id}">{$i/subject}</r>`,
		Params: []string{"LO", "HI"}},
	{ID: core.Q11, Class: core.DCSD,
		XQuery: `for $i in //item[date_of_release >= $LO and date_of_release <= $HI]
		         order by number($i/attributes/number_of_pages)
		         return $i/@id`,
		Params: []string{"LO", "HI"}},
	{ID: core.Q12, Class: core.DCSD,
		XQuery: `//item[@id = $X]/authors/author[1]/contact_information/mailing_address`,
		Params: []string{"X"}, OrderSensitive: true},
	{ID: core.Q13, Class: core.DCSD,
		XQuery: `for $i in //item[@id = $X]
		         return <item-summary id="{$i/@id}"><name>{string($i/title)}</name><released>{string($i/date_of_release)}</released><publisher>{string($i/publisher/name)}</publisher></item-summary>`,
		Params: []string{"X"}},
	{ID: core.Q14, Class: core.DCSD,
		XQuery: `//item[date_of_release >= $LO and date_of_release <= $HI][empty(publisher/FAX_number)]/publisher/name`,
		Params: []string{"LO", "HI"}},
	{ID: core.Q17, Class: core.DCSD,
		XQuery: `//item[contains-word(string(description), $W2)]/title`,
		Params: []string{"W2"}},
	{ID: core.Q20, Class: core.DCSD,
		XQuery: `//item[number(attributes/number_of_pages) > $N]/title`,
		Params: []string{"N"}},

	// ---------------------------------------------------------------- DC/MD
	{ID: core.Q1, Class: core.DCMD,
		XQuery: `//order[@id = $X]/total`,
		Params: []string{"X"}},
	{ID: core.Q2, Class: core.DCMD,
		XQuery: `//order[order_lines/order_line/item_id = $I]/@id`,
		Params: []string{"I"}},
	{ID: core.Q3, Class: core.DCMD,
		XQuery: `sum(//order[order_date >= $LO and order_date <= $HI]/total)`,
		Params: []string{"LO", "HI"}},
	{ID: core.Q5, Class: core.DCMD,
		XQuery: `//order[@id = $X]/order_lines/order_line[1]`,
		Params: []string{"X"}, OrderSensitive: true},
	{ID: core.Q6, Class: core.DCMD,
		XQuery: `//order[some $l in order_lines/order_line satisfies number($l/qty) >= 5]/@id`},
	{ID: core.Q8, Class: core.DCMD,
		XQuery: `//order[@id = $X]/*/order_line/item_id`,
		Params: []string{"X"}},
	{ID: core.Q9, Class: core.DCMD,
		XQuery: `//order[@id = $X]//order_status`,
		Params: []string{"X"}},
	{ID: core.Q10, Class: core.DCMD,
		XQuery: `for $o in //order[order_date >= $LO and order_date <= $HI]
		         order by $o/ship_type
		         return <r><id>{$o/@id}</id><date>{string($o/order_date)}</date><ship>{string($o/ship_type)}</ship></r>`,
		Params: []string{"LO", "HI"}},
	{ID: core.Q12, Class: core.DCMD,
		XQuery: `//order[@id = $X]/cc_xacts`,
		Params: []string{"X"}, OrderSensitive: true},
	{ID: core.Q14, Class: core.DCMD,
		XQuery: `//order[order_date >= $LO and order_date <= $HI][empty(cc_xacts/ship_country)]/@id`,
		Params: []string{"LO", "HI"}},
	{ID: core.Q15, Class: core.DCMD,
		XQuery: `//order[order_status = ""]/@id`},
	{ID: core.Q16, Class: core.DCMD,
		XQuery: `doc($DOC)`,
		Params: []string{"DOC"}},
	{ID: core.Q17, Class: core.DCMD,
		XQuery: `//order[some $c in order_lines/order_line/comment satisfies contains-word(string($c), $W2)]/@id`,
		Params: []string{"W2"}},
	{ID: core.Q19, Class: core.DCMD,
		XQuery: `for $o in //order[@id = $X], $c in //customer[@id = string($o/customer_id)]
		         return <r><name>{string($c/c_fname)} {string($c/c_lname)}</name><phone>{string($c/c_phone)}</phone><status>{string($o/order_status)}</status></r>`,
		Params: []string{"X"}},
}
