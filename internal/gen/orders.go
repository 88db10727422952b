package gen

import (
	"strconv"

	"xbench/internal/core"
	"xbench/internal/stats"
	"xbench/internal/tpcw"
	"xbench/internal/xmldom"
)

// genOrders produces the DC/MD database: one orderXXX.xml per TPC-W order
// (ORDERS ⋈ ORDER_LINE ⋈ CC_XACTS joined into one document each), plus the
// five flat-translation documents Customer, Item, Author, Address and
// Country where each tuple maps to an element instance and each column to
// a sub-element (paper §2.1.2, FT approach).
func (c Config) genOrders(size core.Size, orderNum int) (*core.Database, error) {
	// The flat documents carry a proportional slice of the population.
	data := tpcw.Generate(c.Seed^0xDC3D, tpcw.Counts{
		Orders: orderNum,
		Items:  max(1, orderNum/4),
	})
	flat := []struct {
		name string
		emit func(*xmldom.Encoder, *tpcw.Data)
	}{
		{"customers.xml", emitCustomersFT},
		{"items.xml", emitItemsFT},
		{"authors.xml", emitAuthorsFT},
		{"addresses.xml", emitAddressesFT},
		{"countries.xml", emitCountriesFT},
	}
	docs := make([]core.Doc, len(data.Orders)+len(flat))
	err := stats.ForEach(len(docs), func(i int) error {
		var err error
		if i < len(data.Orders) {
			_, docs[i].Name, _ = core.DocOf(data.Orders[i].ID)
			docs[i].Data, err = emitOrderDoc(data, &data.Orders[i], &data.CCXacts[i])
			return err
		}
		ft := flat[i-len(data.Orders)]
		e := xmldom.NewEncoder()
		ft.emit(e, data)
		docs[i].Name = ft.name
		docs[i].Data, err = e.Bytes()
		return err
	})
	if err != nil {
		return nil, err
	}
	return &core.Database{Class: core.DCMD, Size: size, Docs: docs}, nil
}

func emitOrderDoc(d *tpcw.Data, o *tpcw.Order, x *tpcw.CCXact) ([]byte, error) {
	e := xmldom.NewEncoder()
	e.Begin("order", "id", o.ID)
	e.Leaf("customer_id", o.CustomerID)
	e.Leaf("order_date", o.Date)
	e.Leaf("sub_total", o.SubTotal)
	e.Leaf("tax", o.Tax)
	e.Leaf("total", o.Total)
	e.Leaf("ship_type", o.ShipType)
	e.Leaf("ship_date", o.ShipDate)
	e.Leaf("ship_addr_id", o.ShipAddrID)
	// order_status may legitimately be empty (irregular data), in which
	// case an empty element is still emitted.
	e.Begin("order_status").Text(o.Status).End()
	e.Begin("cc_xacts")
	e.Leaf("cc_type", x.Type)
	e.Leaf("cc_number", x.Number)
	e.Leaf("cc_name", x.Name)
	e.Leaf("cc_expiry", x.Expiry)
	e.Leaf("cc_auth_id", x.AuthID)
	e.Leaf("total_amount", x.Amount)
	if x.Country != "" {
		e.Leaf("ship_country", x.Country)
	}
	e.End() // cc_xacts
	e.Begin("order_lines")
	for _, ol := range d.LinesOf(o.ID) {
		e.Begin("order_line")
		e.Leaf("item_id", ol.ItemID)
		e.Leaf("qty", strconv.Itoa(ol.Qty))
		e.Leaf("discount", ol.Discount)
		if ol.Comment != "" {
			e.Leaf("comment", ol.Comment)
		}
		e.End()
	}
	e.End() // order_lines
	e.End() // order
	return e.Bytes()
}

func emitCustomersFT(e *xmldom.Encoder, d *tpcw.Data) {
	e.Begin("customers")
	for _, c := range d.Customers {
		e.Begin("customer", "id", c.ID)
		e.Leaf("c_uname", c.UName)
		e.Leaf("c_fname", c.FName)
		e.Leaf("c_lname", c.LName)
		e.Leaf("c_phone", c.Phone)
		e.Leaf("c_email", c.Email)
		e.Leaf("c_since", c.Since)
		e.Leaf("c_discount", c.Discount)
		e.Leaf("c_addr_id", c.AddrID)
		e.End()
	}
	e.End()
}

func emitItemsFT(e *xmldom.Encoder, d *tpcw.Data) {
	e.Begin("items")
	for _, it := range d.Items {
		e.Begin("flat_item", "id", it.ID)
		e.Leaf("i_title", it.Title)
		e.Leaf("i_a_id", it.AuthorIDs[0])
		e.Leaf("i_pub_date", it.PubDate)
		e.Leaf("i_publisher", it.PubID)
		e.Leaf("i_subject", it.Subject)
		e.Leaf("i_cost", it.Cost)
		e.Leaf("i_isbn", it.ISBN)
		e.Leaf("i_page", strconv.Itoa(it.Pages))
		e.End()
	}
	e.End()
}

func emitAuthorsFT(e *xmldom.Encoder, d *tpcw.Data) {
	e.Begin("authors")
	for _, a := range d.Authors {
		e.Begin("flat_author", "id", a.ID)
		e.Leaf("a_fname", a.FName)
		e.Leaf("a_lname", a.LName)
		if a.MName != "" {
			e.Leaf("a_mname", a.MName)
		}
		e.Leaf("a_dob", a.DOB)
		e.Leaf("a_bio", a.Bio)
		e.End()
	}
	e.End()
}

func emitAddressesFT(e *xmldom.Encoder, d *tpcw.Data) {
	e.Begin("addresses")
	for _, a := range d.Addresses {
		e.Begin("address", "id", a.ID)
		e.Leaf("addr_street1", a.Street1)
		if a.Street2 != "" {
			e.Leaf("addr_street2", a.Street2)
		}
		e.Leaf("addr_city", a.City)
		e.Leaf("addr_state", a.State)
		e.Leaf("addr_zip", a.Zip)
		e.Leaf("addr_co_id", a.CountryID)
		e.End()
	}
	e.End()
}

func emitCountriesFT(e *xmldom.Encoder, d *tpcw.Data) {
	e.Begin("countries")
	for _, c := range d.Countries {
		e.Begin("country", "id", c.ID)
		e.Leaf("co_name", c.Name)
		e.Leaf("co_exchange", c.Exchange)
		e.Leaf("co_currency", c.Currency)
		e.End()
	}
	e.End()
}
