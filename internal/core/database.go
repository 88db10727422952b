package core

import "strings"

// Doc is one serialized XML document of a benchmark database. Databases are
// exchanged between the generators and the engines in serialized form so
// that each engine pays its own parsing cost during bulk loading, exactly
// as the paper's systems did.
type Doc struct {
	// Name is the document file name, e.g. "dictionary.xml", "article42.xml",
	// "catalog.xml", "order17.xml", "Customer.xml".
	Name string
	// Data is the UTF-8 serialized XML.
	Data []byte
}

// DocOf names the document a multi-document database keeps the root
// element with id under, and that root element: "O<n>" is the order of
// order<n>.xml and "a<n>" the article of article<n>.xml, "OU<n>" and
// "aU<n>" the update workload's order-update-<n>.xml and
// article-update-<n>.xml. Any other id maps to no document (ok false). The
// generators and the update workload name their documents through it, so
// the router's placement and the data's agree by construction.
func DocOf(id string) (rootElem, name string, ok bool) {
	for _, m := range [...]struct{ prefix, root, file string }{
		{"OU", "order", "order-update-"},
		{"aU", "article", "article-update-"},
		{"O", "order", "order"},
		{"a", "article", "article"},
	} {
		if n, found := strings.CutPrefix(id, m.prefix); found && digits(n) {
			return m.root, m.file + n + ".xml", true
		}
	}
	return "", "", false
}

// digits reports whether s is a non-empty run of ASCII digits.
func digits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return s != ""
}

// Database is a generated XBench database instance: the set of documents for
// one class at one scale.
type Database struct {
	Class Class
	Size  Size
	Docs  []Doc
}

// Bytes returns the total serialized size of the database in bytes.
func (db *Database) Bytes() int {
	n := 0
	for _, d := range db.Docs {
		n += len(d.Data)
	}
	return n
}

// Instance returns the paper's instance naming, e.g. "DCMDN".
func (db *Database) Instance() string { return InstanceName(db.Class, db.Size) }

// LoadStats reports what a bulk load did. Engines fill it during Load.
type LoadStats struct {
	Documents int // documents ingested
	Rows      int // relational rows written (0 for the native engine)
	Nodes     int // XML nodes stored natively (0 for shredded engines)
	Bytes     int // input bytes consumed
	PageIO    int64
	// SkippedMixed counts mixed-content elements that could not be mapped
	// and were dropped (paper §3.1.3 item 3; SQL Server only).
	SkippedMixed int
}

// IndexSpec is one value index from paper Table 3, e.g. item/@id for DC/SD.
type IndexSpec struct {
	Class Class
	// Target is the element or attribute path the index covers, written the
	// way Table 3 writes it, e.g. "hw", "article/@id", "date_of_release".
	Target string
}
