// Package xmlschema describes the document structure of the four XBench
// database classes — the information conveyed by Figures 1–4 of the paper —
// and can emit it as a DTD, as an ASCII schema diagram or as a W3C XML
// Schema. The generators in internal/gen emit documents conforming to these
// schemas, and a validator here lets tests check that claim. The schemas
// carry the relational mappings too (Elem.Rows), which internal/shredder
// loads with and XSD prints.
package xmlschema

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"xbench/internal/core"
	"xbench/internal/xmldom"
)

// Occurs is an element's occurrence constraint within its parent.
type Occurs int

const (
	// One means exactly one occurrence (solid rectangle in the figures).
	One Occurs = iota
	// Opt means zero or one (dotted rectangle).
	Opt
	// Many means one or more.
	Many
	// Any means zero or more.
	Any
)

// suffix is an occurrence constraint's mark in a DTD and in the diagram.
var suffix = [...]string{Opt: "?", Many: "+", Any: "*"}

// Elem is one element type in a class schema.
type Elem struct {
	Name     string
	Occurs   Occurs   // occurrence within the parent
	Attrs    []string // attribute names; "@id"-style without the '@'
	Children []*Elem
	// Text marks elements whose content is character data (leaf #PCDATA).
	Text bool
	// Mixed marks mixed-content elements (text interleaved with children),
	// e.g. qt in dictionary.xml — the content model relational mappings
	// cannot represent (paper §3.1.3 item 3).
	Mixed bool
	// Recursive marks elements that may contain themselves (sec in
	// articles), depicted as a back edge in Figure 2.
	Recursive bool

	rows [2]relation // the Rows annotations, by Mapping
}

// Mapping names one of the two relational mappings the schemas are
// annotated with: Shredded, the tables DB2 Xcollection and SQL Server
// decompose documents into, or DAD, DB2 Xcolumn's side tables of
// searchable values beside the documents it keeps intact.
type Mapping int

const (
	Shredded Mapping = iota
	DAD
)

type relation struct {
	table string
	cols  []string
}

// El is a builder shorthand used by the class schema literals.
func El(name string, occurs Occurs, children ...*Elem) *Elem {
	return &Elem{Name: name, Occurs: occurs, Children: children}
}

// TextEl builds a #PCDATA leaf.
func TextEl(name string, occurs Occurs) *Elem {
	return &Elem{Name: name, Occurs: occurs, Text: true}
}

// WithAttrs attaches attribute declarations and returns e.
func (e *Elem) WithAttrs(names ...string) *Elem {
	e.Attrs = append(e.Attrs, names...)
	return e
}

// WithMixed marks e as mixed content and returns e.
func (e *Elem) WithMixed() *Elem { e.Mixed = true; return e }

// WithRecursive marks e as allowing itself as a child and returns e.
func (e *Elem) WithRecursive() *Elem { e.Recursive = true; return e }

// Rows annotates e and returns it: under m, each instance of e makes one
// row of table, whose columns cols lists in stored order as "name=source",
// or as a path or attribute alone, named after its last step. A source is
//
//	a/b          the text of the child at a one-to-one path (NULL when
//	             absent; text the schema marks mixed may be dropped)
//	@a, .        an attribute of e (NULL when absent), e's own text
//	key(t.c)     column c of the row of table t the nearest enclosing
//	             element made (NULL when none did)
//	position()   e's position among its parent's children of its name
//	seqno()      the row's number among the document's rows of table
//	top()        "1", or "0" when an enclosing element makes a row of table
//	exists(a/b)  "1" when the child path exists, NULL otherwise
//	doc()        the document's name, or the reference of Xcolumn's CLOB
func (e *Elem) Rows(m Mapping, table string, cols ...string) *Elem {
	e.rows[m] = relation{table, cols}
	return e
}

// Relation returns what Rows annotated e with under m; table is "" for
// none.
func (e *Elem) Relation(m Mapping) (table string, cols []string) {
	return e.rows[m].table, e.rows[m].cols
}

// Column splits a column annotation into the column's name and its
// source.
func Column(spec string) (name, source string) {
	if name, source, ok := strings.Cut(spec, "="); ok {
		return name, source
	}
	return spec[strings.LastIndexAny(spec, "/@")+1:], spec
}

// Schema is the document structure of one class.
type Schema struct {
	Class core.Class
	// DocName is the document naming pattern, e.g. "dictionary.xml" or
	// "articleXXX.xml".
	DocName string
	Root    *Elem
	// ExtraRoots lists the additional flat-translation documents of DC/MD
	// (Customer, Item, Author, Address, Country).
	ExtraRoots []*Elem

	tables []string // the annotated tables, in creation order
}

// Tables returns the tables the schema's elements are annotated with, of
// both mappings, in the order a store creates them.
func (s *Schema) Tables() []string { return s.tables }

// For returns the schema of a class.
func For(c core.Class) *Schema {
	switch c {
	case core.TCSD:
		return dictionarySchema
	case core.TCMD:
		return articleSchema
	case core.DCSD:
		return catalogSchema
	case core.DCMD:
		return orderSchema
	}
	panic("xmlschema: unknown class")
}

// DTD renders the schema as a Document Type Definition.
func (s *Schema) DTD() string {
	var b strings.Builder
	seen := map[string]bool{}
	var emit func(e *Elem)
	emit = func(e *Elem) {
		if seen[e.Name] {
			return
		}
		seen[e.Name] = true
		switch {
		case e.Mixed:
			names := make([]string, 0, len(e.Children))
			for _, c := range e.Children {
				names = append(names, c.Name)
			}
			fmt.Fprintf(&b, "<!ELEMENT %s (#PCDATA | %s)*>\n", e.Name, strings.Join(names, " | "))
		case e.Text || len(e.Children) == 0:
			fmt.Fprintf(&b, "<!ELEMENT %s (#PCDATA)>\n", e.Name)
		default:
			parts := make([]string, 0, len(e.Children)+1)
			for _, c := range e.Children {
				parts = append(parts, c.Name+suffix[c.Occurs])
			}
			if e.Recursive {
				parts = append(parts, e.Name+"*")
			}
			fmt.Fprintf(&b, "<!ELEMENT %s (%s)>\n", e.Name, strings.Join(parts, ", "))
		}
		if len(e.Attrs) > 0 {
			fmt.Fprintf(&b, "<!ATTLIST %s", e.Name)
			for _, a := range e.Attrs {
				kind := "CDATA #IMPLIED"
				if a == "id" {
					kind = "ID #REQUIRED"
				}
				fmt.Fprintf(&b, "\n  %s %s", a, kind)
			}
			b.WriteString(">\n")
		}
		for _, c := range e.Children {
			emit(c)
		}
	}
	for _, r := range s.roots() {
		emit(r)
	}
	return b.String()
}

// Diagram renders the ASCII schema tree that stands in for the paper's
// figure. Dotted boxes (optional elements) render with a '?' marker,
// repetition with '*'/'+', mixed content with '(mixed)'.
func (s *Schema) Diagram() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Schema of %s (%s)\n", s.Class, s.DocName)
	drawElem(&b, s.Root, "", true, true)
	for _, r := range s.ExtraRoots {
		b.WriteString("\n")
		drawElem(&b, r, "", true, true)
	}
	return b.String()
}

func drawElem(b *strings.Builder, e *Elem, prefix string, last, root bool) {
	connector := "├── "
	childPrefix := prefix + "│   "
	if last {
		connector = "└── "
		childPrefix = prefix + "    "
	}
	if root {
		connector = ""
		childPrefix = ""
	}
	label := e.Name + suffix[e.Occurs]
	var notes []string
	for _, a := range e.Attrs {
		notes = append(notes, "@"+a)
	}
	if e.Mixed {
		notes = append(notes, "mixed")
	}
	if e.Recursive {
		notes = append(notes, "recursive")
	}
	if len(notes) > 0 {
		label += " (" + strings.Join(notes, ", ") + ")"
	}
	fmt.Fprintf(b, "%s%s%s\n", prefix, connector, label)
	for i, c := range e.Children {
		drawElem(b, c, childPrefix, i == len(e.Children)-1, false)
	}
}

// ElementNames returns the sorted set of element type names in the schema.
func (s *Schema) ElementNames() []string {
	var names []string
	var walk func(e *Elem)
	walk = func(e *Elem) {
		names = append(names, e.Name)
		for _, c := range e.Children {
			walk(c)
		}
	}
	for _, r := range s.roots() {
		walk(r)
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// Validate checks the document parsed into rec against the schema: every
// element must be a declared child of its parent (or the element itself
// when recursive), with declared attributes only. It returns the first
// violation found.
func (s *Schema) Validate(rec *xmldom.Record) error {
	root, roots := rec.Element(), s.roots()
	i := slices.IndexFunc(roots, func(r *Elem) bool { return r.Name == string(root.Name()) })
	if i < 0 {
		return fmt.Errorf("xmlschema: unknown root element <%s> for class %s", root.Name(), s.Class)
	}
	return validateElem(root, roots[i])
}

// roots returns the root elements of the class's documents.
func (s *Schema) roots() []*Elem { return append([]*Elem{s.Root}, s.ExtraRoots...) }

// Descendant returns the element declared at path, a child path like
// "a/b", below e: e itself for ".", nil when there is none.
func (e *Elem) Descendant(path string) *Elem {
	for _, step := range strings.Split(path, "/") {
		if step != "." {
			if e = e.child(step); e == nil {
				return nil
			}
		}
	}
	return e
}

// child returns e's declared child element named name — e itself when
// recursive — or nil.
func (e *Elem) child(name string) *Elem {
	for _, c := range e.Children {
		if c.Name == name {
			return c
		}
	}
	if e.Recursive && e.Name == name {
		return e
	}
	return nil
}

func validateElem(x xmldom.Ref, decl *Elem) error {
	for it := x.Attrs(); ; {
		name, _, ok := it.Next()
		if !ok {
			break
		}
		if !slices.Contains(decl.Attrs, string(name)) {
			return fmt.Errorf("xmlschema: undeclared attribute %q on <%s>", name, x.Name())
		}
	}
	for c, ok := x.FirstChild(); ok; c, ok = c.NextSibling() {
		switch c.Kind() {
		case xmldom.ElementKind:
			child := decl.child(string(c.Name()))
			if child == nil {
				return fmt.Errorf("xmlschema: <%s> is not a declared child of <%s>", c.Name(), x.Name())
			}
			if err := validateElem(c, child); err != nil {
				return err
			}
		case xmldom.TextKind:
			if !decl.Text && !decl.Mixed && len(decl.Children) > 0 &&
				len(bytes.TrimSpace(c.Data())) > 0 {
				return fmt.Errorf("xmlschema: unexpected text content in <%s>", x.Name())
			}
		}
	}
	return nil
}
