package xmlschema

import (
	"fmt"
	"strings"
)

// XSD renders the schema as a W3C XML Schema document. XBench's support
// for XML Schema (not just DTDs) is one of its differentiators from
// XMach-1, XMark and XOO7 in the paper's related-work comparison; the
// tech report ships both forms, and so do we.
//
// It carries the mappings the engines load with as SQLXML annotations:
// sql:relation on an element that makes a row, sql:field on the element
// or attribute a column's value is, the computed columns in the row
// element's appinfo; Xcolumn's DAD alike under the dad prefix.
func (s *Schema) XSD() string {
	w := &xsdWriter{named: map[*Elem]bool{}, decl: map[*Elem]string{},
		info: map[*Elem][]string{}, attr: map[attrOf]string{}}
	roots := s.roots()
	for _, r := range roots {
		w.annotate(r)
	}
	w.WriteString(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	w.WriteString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"` +
		` xmlns:sql="urn:schemas-microsoft-com:mapping-schema" xmlns:dad="urn:xbench:db2-dad"` +
		` elementFormDefault="qualified">` + "\n")
	// Global element declarations for every root; nested elements are
	// declared inline, except recursive or shared ones, which get a named
	// complex type so the self-reference is expressible and the mapping
	// of a shared element is stated once.
	for _, e := range w.elems {
		if w.named[e] {
			fmt.Fprintf(w, `  <xs:complexType name="%sType"%s%s>`+"\n", e.Name, mixedAttr(e), w.decl[e])
			w.appinfo(w.info[e], "    ")
			w.content(e, "    ")
			w.WriteString("  </xs:complexType>\n")
		}
	}
	for _, r := range roots {
		w.element(r, "  ", true)
	}
	w.WriteString("</xs:schema>\n")
	return w.String()
}

// xsdWriter writes an XSD, with the mapping annotations of each
// declaration: its own attributes, its appinfo entries (the computed
// columns) and those of its attribute declarations.
type xsdWriter struct {
	strings.Builder
	elems []*Elem        // every element, in document order
	named map[*Elem]bool // declared as a named complex type
	decl  map[*Elem]string
	info  map[*Elem][]string
	attr  map[attrOf]string
}

type attrOf struct {
	e    *Elem
	name string
}

// prefixes are the annotation prefixes of the mappings.
var prefixes = [...]string{Shredded: "sql", DAD: "dad"}

// annotate places the annotations of e and the elements under it on the
// declarations they name, and marks the recursive and the shared
// elements for named types.
func (w *xsdWriter) annotate(e *Elem) {
	if _, seen := w.named[e]; seen {
		w.named[e] = true
		return
	}
	w.named[e] = e.Recursive
	w.elems = append(w.elems, e)
	for m, r := range e.rows {
		if r.table == "" {
			continue
		}
		p := prefixes[m]
		w.decl[e] += fmt.Sprintf(` %s:relation="%s"`, p, r.table)
		for _, spec := range r.cols {
			name, src := Column(spec)
			field := fmt.Sprintf(` %s:field="%s"`, p, name)
			switch {
			case strings.HasPrefix(src, "@"):
				w.attr[attrOf{e, src[1:]}] += field
			case strings.HasSuffix(src, ")"):
				w.info[e] = append(w.info[e], fmt.Sprintf(`<%s:field name="%s" source="%s"/>`, p, name, src))
			default:
				w.decl[e.Descendant(src)] += field
			}
		}
	}
	for _, c := range e.Children {
		w.annotate(c)
	}
}

func mixedAttr(e *Elem) string {
	if e.Mixed {
		return ` mixed="true"`
	}
	return ""
}

// occurs are the occurrence constraints' XSD attributes.
var occurs = [...]string{Opt: ` minOccurs="0"`, Many: ` maxOccurs="unbounded"`,
	Any: ` minOccurs="0" maxOccurs="unbounded"`}

func (w *xsdWriter) element(e *Elem, indent string, root bool) {
	occurs := occurs[e.Occurs]
	if root {
		occurs = ""
	}
	if w.named[e] {
		fmt.Fprintf(w, `%s<xs:element name="%s" type="%sType"%s/>`+"\n",
			indent, e.Name, e.Name, occurs)
		return
	}
	if (e.Text || len(e.Children) == 0) && len(e.Attrs) == 0 && !e.Mixed {
		fmt.Fprintf(w, `%s<xs:element name="%s" type="xs:string"%s%s`, indent, e.Name, occurs, w.decl[e])
		if len(w.info[e]) == 0 {
			w.WriteString("/>\n")
			return
		}
		w.WriteString(">\n")
		w.appinfo(w.info[e], indent+"  ")
		fmt.Fprintf(w, "%s</xs:element>\n", indent)
		return
	}
	fmt.Fprintf(w, `%s<xs:element name="%s"%s%s>`+"\n", indent, e.Name, occurs, w.decl[e])
	w.appinfo(w.info[e], indent+"  ")
	fmt.Fprintf(w, `%s  <xs:complexType%s>`+"\n", indent, mixedAttr(e))
	w.content(e, indent+"    ")
	fmt.Fprintf(w, "%s  </xs:complexType>\n", indent)
	fmt.Fprintf(w, "%s</xs:element>\n", indent)
}

// appinfo writes the computed columns of a row element's declaration.
func (w *xsdWriter) appinfo(info []string, indent string) {
	if len(info) == 0 {
		return
	}
	fmt.Fprintf(w, "%s<xs:annotation>\n%s  <xs:appinfo>\n", indent, indent)
	for _, entry := range info {
		fmt.Fprintf(w, "%s    %s\n", indent, entry)
	}
	fmt.Fprintf(w, "%s  </xs:appinfo>\n%s</xs:annotation>\n", indent, indent)
}

// content writes the sequence of children and attribute declarations
// of a complex type.
func (w *xsdWriter) content(e *Elem, indent string) {
	hasSeq := len(e.Children) > 0 || e.Recursive
	if !hasSeq && (e.Text || len(e.Children) == 0) && len(e.Attrs) > 0 && !e.Mixed {
		// Text content plus attributes: simple content extension.
		fmt.Fprintf(w, "%s<xs:simpleContent>\n", indent)
		fmt.Fprintf(w, `%s  <xs:extension base="xs:string">`+"\n", indent)
		w.attrs(e, indent+"    ")
		fmt.Fprintf(w, "%s  </xs:extension>\n", indent)
		fmt.Fprintf(w, "%s</xs:simpleContent>\n", indent)
		return
	}
	if hasSeq {
		fmt.Fprintf(w, "%s<xs:sequence>\n", indent)
		for _, c := range e.Children {
			w.element(c, indent+"  ", false)
		}
		if e.Recursive {
			fmt.Fprintf(w, `%s  <xs:element name="%s" type="%sType" minOccurs="0" maxOccurs="unbounded"/>`+"\n",
				indent, e.Name, e.Name)
		}
		fmt.Fprintf(w, "%s</xs:sequence>\n", indent)
	}
	w.attrs(e, indent)
}

func (w *xsdWriter) attrs(e *Elem, indent string) {
	for _, name := range e.Attrs {
		use := "optional"
		typ := "xs:string"
		if name == "id" {
			use = "required"
			typ = "xs:ID"
		}
		fmt.Fprintf(w, `%s<xs:attribute name="%s" type="%s" use="%s"%s/>`+"\n",
			indent, name, typ, use, w.attr[attrOf{e, name}])
	}
}
