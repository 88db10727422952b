// Package analyze reimplements the statistical analysis the XBench authors
// ran over real corpora to design the database generators (paper §2.1.1):
// for a set of XML documents it collects the element type inventory,
// parent/child relationships, the occurrence distribution of each child
// element under its parent, value-length distributions, and attribute
// usage — then fits standard probability distributions to each parameter.
//
// It closes the loop for the reproduction: analyzing our own generated
// databases recovers the schema structure of Figures 1-4 and distribution
// families close to the ones the generators were built from.
package analyze

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"

	"xbench/internal/stats"
	"xbench/internal/xmldom"
)

// ChildStat describes the occurrence of one child element type under one
// parent element type.
type ChildStat struct {
	Parent, Child string
	// Occurrences holds, per parent instance, the number of child
	// instances.
	Occurrences *stats.Histogram
	// Optional is true when at least one parent instance has no child of
	// this type (a dotted box in the paper's figures).
	Optional bool
	// Fitted is the distribution family fitted to the occurrence counts.
	Fitted stats.Dist
}

// ElemStat describes one element type across the corpus.
type ElemStat struct {
	Name      string
	Count     int
	TextLens  *stats.Histogram // direct text length per instance
	Mixed     int              // instances with mixed content
	Recursive bool             // appears inside itself
	Attrs     map[string]int   // attribute name -> occurrences
}

// Report is the full analysis of a document set.
type Report struct {
	Documents int
	Nodes     int
	Elements  map[string]*ElemStat
	// Children is keyed "parent/child".
	Children map[string]*ChildStat

	rec xmldom.Record // the document being added, reused
}

// New returns an empty report ready to accept documents.
func New() *Report {
	return &Report{
		Elements: map[string]*ElemStat{},
		Children: map[string]*ChildStat{},
	}
}

// AddDocument parses one XML document and folds it into the report.
func (r *Report) AddDocument(data []byte) error {
	if err := xmldom.ParseRecord(&r.rec, data); err != nil {
		return err
	}
	r.Documents++
	r.walk(r.rec.Element(), map[string]bool{})
	return nil
}

func (r *Report) walk(n xmldom.Ref, ancestors map[string]bool) {
	r.Nodes++
	name := string(n.Name())
	es := r.elem(name)
	es.Count++
	introduced := !ancestors[name]
	if !introduced {
		es.Recursive = true
	}
	textLen := 0
	counts := map[string]int{}
	for c, ok := n.FirstChild(); ok; c, ok = c.NextSibling() {
		switch c.Kind() {
		case xmldom.TextKind:
			textLen += len(bytes.TrimSpace(c.Data()))
		case xmldom.ElementKind:
			counts[string(c.Name())]++
		}
	}
	es.TextLens.Add(textLen)
	if n.HasMixedContent() {
		es.Mixed++
	}
	for it := n.Attrs(); ; {
		a, _, ok := it.Next()
		if !ok {
			break
		}
		es.Attrs[string(a)]++
	}
	// Record the occurrence count of each child type present in this
	// instance; optionality is derived in Finish by comparing against the
	// parent's instance count.
	for child, c := range counts {
		r.child(name, child).Occurrences.Add(c)
	}
	ancestors[name] = true
	for c := n.Child(""); !c.IsZero(); c = c.Sibling("") {
		r.walk(c, ancestors)
	}
	if introduced {
		delete(ancestors, name)
	}
}

func (r *Report) elem(name string) *ElemStat {
	es, ok := r.Elements[name]
	if !ok {
		es = &ElemStat{Name: name, TextLens: stats.NewHistogram(), Attrs: map[string]int{}}
		r.Elements[name] = es
	}
	return es
}

func (r *Report) child(parent, child string) *ChildStat {
	key := parent + "/" + child
	cs, ok := r.Children[key]
	if !ok {
		cs = &ChildStat{Parent: parent, Child: child, Occurrences: stats.NewHistogram()}
		r.Children[key] = cs
	}
	return cs
}

// Finish fits distributions to every collected parameter. Call once after
// all documents are added.
func (r *Report) Finish() {
	for _, cs := range r.Children {
		cs.Fitted = stats.Fit(cs.Occurrences.Samples())
		// A child type whose instances-per-parent histogram misses some
		// parent instances entirely is optional; Occurrences only records
		// parents that had >= 1, so compare totals.
		parents := r.Elements[cs.Parent]
		if parents != nil && cs.Occurrences.Total() < parents.Count {
			cs.Optional = true
		}
	}
}

// ElementNames returns the element inventory sorted by descending count.
func (r *Report) ElementNames() []string {
	names := make([]string, 0, len(r.Elements))
	for n := range r.Elements {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := r.Elements[names[i]], r.Elements[names[j]]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return a.Name < b.Name
	})
	return names
}

// WriteTo renders the analysis the way the paper's tech report presents
// it: element inventory, then parent/child structure with fitted
// occurrence distributions.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Analyzed %d document(s), %d element node(s), %d element type(s)\n\n",
		r.Documents, r.Nodes, len(r.Elements))
	fmt.Fprintf(&b, "%-24s %8s %8s %7s %10s  %s\n",
		"element", "count", "avg-text", "mixed", "recursive", "attributes")
	for _, name := range r.ElementNames() {
		es := r.Elements[name]
		avgText := 0.0
		if es.TextLens.Total() > 0 {
			s := stats.Summarize(es.TextLens.Samples())
			avgText = s.Mean
		}
		var attrs []string
		for a := range es.Attrs {
			attrs = append(attrs, "@"+a)
		}
		sort.Strings(attrs)
		fmt.Fprintf(&b, "%-24s %8d %8.1f %7d %10v  %s\n",
			name, es.Count, avgText, es.Mixed, es.Recursive, strings.Join(attrs, " "))
	}
	b.WriteString("\nparent/child occurrence distributions:\n")
	keys := make([]string, 0, len(r.Children))
	for k := range r.Children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		cs := r.Children[k]
		marker := ""
		if cs.Optional {
			marker = " (optional)"
		}
		fmt.Fprintf(&b, "  %-32s n=%-6d fit=%v%s\n",
			k, cs.Occurrences.Total(), cs.Fitted, marker)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}
