// Package tpcw generates the TPC-W-derived relational population that
// feeds the data-centric XBench classes (paper §2.1.2). It implements the
// eight TPC-W base tables — ITEM, AUTHOR, CUSTOMER, ADDRESS, COUNTRY,
// ORDERS, ORDER_LINE, CC_XACTS — plus the two tables the paper adds:
// AUTHOR_2 (author mailing address, phone, e-mail) and PUBLISHER (name,
// fax, phone, e-mail).
//
// Population is fully deterministic for a given (seed, counts) so the
// DC/SD catalog mapping and the DC/MD flat/order mappings always agree on
// the underlying data.
package tpcw

import (
	"slices"
	"strconv"

	"xbench/internal/stats"
	"xbench/internal/textgen"
)

// Item is a TPC-W ITEM row (items are books).
type Item struct {
	ID        string // I_ID, "I<n>"
	Title     string
	AuthorIDs []string // authors of the book (>= 1); first is I_A_ID
	PubID     string   // publisher reference (added table)
	PubDate   string   // I_PUB_DATE, also catalog date_of_release
	Subject   string
	Desc      string
	Cost      string
	SRP       string
	Avail     string
	ISBN      string
	Pages     int
	Backing   string
	Length    string
	Width     string
	Height    string
}

// Author is a TPC-W AUTHOR row.
type Author struct {
	ID    string // "A<n>"
	FName string
	MName string // may be empty
	LName string
	DOB   string
	Bio   string
}

// Author2 is the paper's added AUTHOR_2 row: additional author contact
// information (mailing address, phone and e-mail).
type Author2 struct {
	AuthorID string
	AddrID   string
	Phone    string // may be empty
	Email    string // may be empty
}

// Publisher is the paper's added PUBLISHER row.
type Publisher struct {
	ID    string // "P<n>"
	Name  string
	Fax   string // may be empty — the Q14 missing element
	Phone string
	Email string
}

// Address is a TPC-W ADDRESS row.
type Address struct {
	ID        string // "ADDR<n>"
	Street1   string
	Street2   string // may be empty
	City      string
	State     string // may be empty
	Zip       string
	CountryID string
}

// Country is a TPC-W COUNTRY row.
type Country struct {
	ID       string // "CO<n>"
	Name     string
	Exchange string
	Currency string
}

// Customer is a TPC-W CUSTOMER row.
type Customer struct {
	ID       string // "C<n>"
	UName    string
	FName    string
	LName    string
	Phone    string
	Email    string
	Since    string
	Discount string
	AddrID   string
}

// Order is a TPC-W ORDERS row.
type Order struct {
	ID         string // "O<n>"
	CustomerID string
	Date       string
	SubTotal   string
	Tax        string
	Total      string
	ShipType   string
	ShipDate   string
	ShipAddrID string
	Status     string // may be empty (irregularity)
}

// OrderLine is a TPC-W ORDER_LINE row (1:n with ORDERS).
type OrderLine struct {
	OrderID  string
	Seq      int
	ItemID   string
	Qty      int
	Discount string
	Comment  string // may be empty
}

// CCXact is a TPC-W CC_XACTS row (1:1 with ORDERS).
type CCXact struct {
	OrderID string
	Type    string
	Number  string
	Name    string
	Expiry  string
	AuthID  string
	Amount  string
	Country string // may be empty
}

// Counts sizes the population.
type Counts struct {
	Items     int
	Authors   int
	Pubs      int
	Customers int
	Orders    int
	Countries int
}

// Data is a complete deterministic TPC-W population. Slices are ordered by
// id so mappings emit documents in a stable order.
type Data struct {
	Items      []Item
	Authors    []Author
	Author2s   []Author2 // one per author, aligned by index
	Publishers []Publisher
	Addresses  []Address
	Countries  []Country
	Customers  []Customer
	Orders     []Order
	OrderLines []OrderLine // grouped by order, ascending Seq
	CCXacts    []CCXact    // one per order, aligned by index

	authorByID   map[string]int
	pubByID      map[string]int
	addrByID     map[string]int
	countryByID  map[string]int
	linesByOrder map[string][]int
}

var shipTypes = []string{"AIR", "UPS", "FEDEX", "SHIP", "COURIER", "MAIL"}
var subjects = []string{"ARTS", "BIOGRAPHIES", "BUSINESS", "CHILDREN",
	"COMPUTERS", "COOKING", "HEALTH", "HISTORY", "HOME", "HUMOR",
	"LITERATURE", "MYSTERY", "NON-FICTION", "PARENTING", "POLITICS",
	"REFERENCE", "RELIGION", "ROMANCE", "SCIENCE-FICTION", "SCIENCE",
	"SELF-HELP", "SPORTS", "TRAVEL", "YOUTH"}
var backings = []string{"HARDBACK", "PAPERBACK", "USED", "AUDIO", "LIMITED-EDITION"}
var ccTypes = []string{"VISA", "MASTERCARD", "DISCOVER", "AMEX", "DINERS"}
var statuses = []string{"PENDING", "PROCESSING", "SHIPPED", "DENIED", ""}

// Generate builds a deterministic population. Counts fields that are zero
// get sensible defaults derived from Orders/Items. Every row is a function
// of (seed, table, index), drawn from its own Split stream, so each table
// is generated on every core (stats.ForEach), after the tables it refers
// to.
func Generate(seed uint64, c Counts) *Data {
	if c.Countries == 0 {
		c.Countries = textgen.CountryCount()
	}
	if c.Authors == 0 {
		c.Authors = max(1, c.Items/2)
	}
	if c.Pubs == 0 {
		c.Pubs = max(1, c.Items/10)
	}
	if c.Customers == 0 {
		c.Customers = max(1, c.Orders/3)
	}
	root := stats.NewRNG(seed)
	d := &Data{}

	d.Countries = make([]Country, c.Countries)
	for i := range d.Countries {
		d.Countries[i] = Country{
			ID:       padded("CO", i+1, 0),
			Name:     textgen.Country(i),
			Exchange: fixed(0.5+float64(i%40)*0.1, 4),
			Currency: padded("CUR", i%25, 2),
		}
	}

	// Addresses: one per author plus one per customer.
	nAddr := c.Authors + c.Customers
	addrRNG := root.Split(1)
	d.Addresses = make([]Address, nAddr)
	rows(nAddr, func(i int) {
		r := addrRNG.Split(uint64(i))
		a := Address{
			ID:        padded("ADDR", i+1, 0),
			Street1:   strconv.Itoa(1+r.Intn(9999)) + " " + textgen.WordAt(r.Intn(200)) + " Street",
			City:      textgen.WordAt(100 + r.Intn(120)),
			Zip:       padded("", r.Intn(100000), 5),
			CountryID: d.Countries[r.Intn(len(d.Countries))].ID,
		}
		if r.Bool(0.3) {
			a.Street2 = padded("Suite ", 1+r.Intn(400), 0)
		}
		if r.Bool(0.7) {
			a.State = padded("ST", r.Intn(50), 2)
		}
		d.Addresses[i] = a
	})

	authRNG := root.Split(2)
	d.Authors = make([]Author, c.Authors)
	d.Author2s = make([]Author2, c.Authors)
	rows(c.Authors, func(i int) {
		r := authRNG.Split(uint64(i))
		a := Author{
			ID:    padded("A", i+1, 0),
			FName: textgen.FirstName(i),
			LName: textgen.LastName(i / 7),
			DOB:   textgen.Date(r.Intn(9 * 360)),
			Bio:   textgen.NewText(r.Split(1)).Paragraph(2),
		}
		if r.Bool(0.4) {
			a.MName = textgen.FirstName(i + 13)
		}
		d.Authors[i] = a
		a2 := Author2{AuthorID: a.ID, AddrID: d.Addresses[i].ID}
		if r.Bool(0.85) {
			a2.Phone = textgen.Phone(i)
		}
		if r.Bool(0.85) {
			a2.Email = textgen.Email(a.FName+" "+a.LName, i)
		}
		d.Author2s[i] = a2
	})

	pubRNG := root.Split(3)
	d.Publishers = make([]Publisher, c.Pubs)
	rows(c.Pubs, func(i int) {
		r := pubRNG.Split(uint64(i))
		p := Publisher{
			ID:    padded("P", i+1, 0),
			Name:  textgen.WordAt(50+i) + " " + textgen.WordAt(90+i*3) + " Press",
			Phone: textgen.Phone(1000 + i),
			Email: textgen.Email("press office", i),
		}
		// Roughly half the publishers have a fax number; Q14 looks for the
		// ones that do not.
		if r.Bool(0.5) {
			p.Fax = textgen.Phone(2000 + i)
		}
		d.Publishers[i] = p
	})

	itemRNG := root.Split(4)
	pages := stats.Normal{Mu: 450, Sigma: 220, Min: 20, Max: 3000}
	d.Items = make([]Item, c.Items)
	rows(c.Items, func(i int) {
		r := itemRNG.Split(uint64(i))
		tx := textgen.NewText(r.Split(9))
		nAuthors := 1 + r.Intn(3)
		ids := make([]string, nAuthors)
		for j := range ids {
			ids[j] = d.Authors[r.Intn(len(d.Authors))].ID
		}
		cost := 5 + r.Float64()*95
		d.Items[i] = Item{
			ID:        padded("I", i+1, 0),
			Title:     titleCase(tx.Words(2 + r.Intn(5))),
			AuthorIDs: ids,
			PubID:     d.Publishers[r.Intn(len(d.Publishers))].ID,
			PubDate:   textgen.Date(r.Intn(9 * 360)),
			Subject:   subjects[r.Intn(len(subjects))],
			Desc:      tx.Paragraph(1 + r.Intn(3)),
			Cost:      fixed(cost, 2),
			SRP:       fixed(cost*(1.1+r.Float64()*0.4), 2),
			Avail:     textgen.Date(r.Intn(9 * 360)),
			ISBN:      padded("", 9780000000000+i*7+r.Intn(7), 13),
			Pages:     stats.DrawInt(r, pages),
			Backing:   backings[r.Intn(len(backings))],
			Length:    fixed(10+r.Float64()*20, 1),
			Width:     fixed(8+r.Float64()*12, 1),
			Height:    fixed(1+r.Float64()*6, 1),
		}
	})

	custRNG := root.Split(5)
	d.Customers = make([]Customer, c.Customers)
	rows(c.Customers, func(i int) {
		r := custRNG.Split(uint64(i))
		fn, ln := textgen.FirstName(i+3), textgen.LastName(i/5)
		d.Customers[i] = Customer{
			ID:       padded("C", i+1, 0),
			UName:    padded(fn, i, 0),
			FName:    fn,
			LName:    ln,
			Phone:    textgen.Phone(3000 + i),
			Email:    textgen.Email(fn+" "+ln, i),
			Since:    textgen.Date(r.Intn(9 * 360)),
			Discount: strconv.Itoa(r.Intn(25)),
			AddrID:   d.Addresses[c.Authors+i].ID,
		}
	})

	orderRNG := root.Split(6)
	lineDist := stats.Exponential{Lambda: 0.5, Min: 1, Max: 12}
	d.Orders = make([]Order, c.Orders)
	d.CCXacts = make([]CCXact, c.Orders)
	lines := make([][]OrderLine, c.Orders) // each order's, in Seq order
	rows(c.Orders, func(i int) {
		r := orderRNG.Split(uint64(i))
		cust := d.Customers[r.Intn(len(d.Customers))]
		day := r.Intn(9 * 360)
		sub := 0.0
		nLines := stats.DrawInt(r, lineDist)
		oid := padded("O", i+1, 0)
		lines[i] = make([]OrderLine, nLines)
		for s := 1; s <= nLines; s++ {
			item := d.Items[r.Intn(len(d.Items))]
			qty := 1 + r.Intn(5)
			ol := OrderLine{
				OrderID:  oid,
				Seq:      s,
				ItemID:   item.ID,
				Qty:      qty,
				Discount: strconv.Itoa(r.Intn(10)),
			}
			if r.Bool(0.2) {
				ol.Comment = textgen.NewText(r.Split(uint64(s))).Sentence(4, 9)
			}
			lines[i][s-1] = ol
			costF, _ := strconv.ParseFloat(item.Cost, 64) // formatted above with two decimals
			sub += costF * float64(qty)
		}
		tax := sub * 0.08
		o := Order{
			ID:         oid,
			CustomerID: cust.ID,
			Date:       textgen.Date(day),
			SubTotal:   fixed(sub, 2),
			Tax:        fixed(tax, 2),
			Total:      fixed(sub+tax, 2),
			ShipType:   shipTypes[r.Intn(len(shipTypes))],
			ShipDate:   textgen.Date(min(day+1+r.Intn(14), 9*360-1)),
			ShipAddrID: cust.AddrID,
			Status:     statuses[r.Intn(len(statuses))],
		}
		d.Orders[i] = o
		x := CCXact{
			OrderID: oid,
			Type:    ccTypes[r.Intn(len(ccTypes))],
			Number:  padded("4", r.Intn(1<<30), 15),
			Name:    cust.FName + " " + cust.LName,
			Expiry:  textgen.Date(day + 360 + r.Intn(720)),
			AuthID:  padded("AUTH", r.Intn(1000000), 6),
			Amount:  o.Total,
		}
		if r.Bool(0.6) {
			x.Country = d.Countries[r.Intn(len(d.Countries))].Name
		}
		d.CCXacts[i] = x
	})
	d.OrderLines = slices.Concat(lines...)

	d.buildIndexes()
	return d
}

// rows generates n rows on every core: row(i) writes row i of its table
// and reads only the tables generated before it.
func rows(n int, row func(i int)) {
	_ = stats.ForEach(n, func(i int) error { row(i); return nil })
}

// padded returns prefix followed by n ≥ 0 in decimal, zero-padded to
// width digits: what fmt's prefix+"%0<width>d" prints.
func padded(prefix string, n, width int) string {
	var buf [32]byte
	return string(textgen.AppendInt(append(buf[:0], prefix...), n, width))
}

// fixed returns x with prec decimals: what fmt's "%.<prec>f" prints.
func fixed(x float64, prec int) string { return strconv.FormatFloat(x, 'f', prec, 64) }

func (d *Data) buildIndexes() {
	d.authorByID = make(map[string]int, len(d.Authors))
	for i, a := range d.Authors {
		d.authorByID[a.ID] = i
	}
	d.pubByID = make(map[string]int, len(d.Publishers))
	for i, p := range d.Publishers {
		d.pubByID[p.ID] = i
	}
	d.addrByID = make(map[string]int, len(d.Addresses))
	for i, a := range d.Addresses {
		d.addrByID[a.ID] = i
	}
	d.countryByID = make(map[string]int, len(d.Countries))
	for i, c := range d.Countries {
		d.countryByID[c.ID] = i
	}
	d.linesByOrder = make(map[string][]int)
	for i, ol := range d.OrderLines {
		d.linesByOrder[ol.OrderID] = append(d.linesByOrder[ol.OrderID], i)
	}
}

// AuthorByID returns the author row, and its AUTHOR_2 extension.
func (d *Data) AuthorByID(id string) (Author, Author2, bool) {
	i, ok := d.authorByID[id]
	if !ok {
		return Author{}, Author2{}, false
	}
	return d.Authors[i], d.Author2s[i], true
}

// PublisherByID returns the publisher row.
func (d *Data) PublisherByID(id string) (Publisher, bool) {
	i, ok := d.pubByID[id]
	if !ok {
		return Publisher{}, false
	}
	return d.Publishers[i], true
}

// AddressByID returns the address row.
func (d *Data) AddressByID(id string) (Address, bool) {
	i, ok := d.addrByID[id]
	if !ok {
		return Address{}, false
	}
	return d.Addresses[i], true
}

// CountryByID returns the country row.
func (d *Data) CountryByID(id string) (Country, bool) {
	i, ok := d.countryByID[id]
	if !ok {
		return Country{}, false
	}
	return d.Countries[i], true
}

// LinesOf returns the order lines of an order, ascending by Seq.
func (d *Data) LinesOf(orderID string) []OrderLine {
	idx := d.linesByOrder[orderID]
	out := make([]OrderLine, len(idx))
	for i, j := range idx {
		out[i] = d.OrderLines[j]
	}
	return out
}

func titleCase(s string) string {
	out := []byte(s)
	up := true
	for i, c := range out {
		if up && c >= 'a' && c <= 'z' {
			out[i] = c - 'a' + 'A'
		}
		up = c == ' '
	}
	return string(out)
}
