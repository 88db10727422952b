// Package xmldom implements the XML substrate of XBench from scratch: a
// tokenizer and parser producing a DOM with document order, a serializer,
// and a streaming encoder used by the database generators.
//
// Only the XML 1.0 subset exercised by the benchmark is supported:
// elements, attributes, character data, CDATA sections, comments,
// processing instructions, the five predefined entities and numeric
// character references. DTDs are skipped (the paper turns validation off
// during loading).
package xmldom

import "strings"

// Kind discriminates DOM node types.
type Kind uint8

const (
	// DocumentKind is the root container of a parsed document.
	DocumentKind Kind = iota
	// ElementKind is an element node.
	ElementKind
	// TextKind is a character-data node.
	TextKind
	// CommentKind is a comment node.
	CommentKind
	// PIKind is a processing-instruction node.
	PIKind
)

func (k Kind) String() string {
	switch k {
	case DocumentKind:
		return "document"
	case ElementKind:
		return "element"
	case TextKind:
		return "text"
	case CommentKind:
		return "comment"
	case PIKind:
		return "pi"
	}
	return "invalid"
}

// Attr is a name="value" attribute of an element.
type Attr struct {
	Name  string
	Value string
}

// Node is a DOM node. A single concrete type covers all kinds; the fields
// used depend on Kind. Document order (Ord) is assigned during parsing or
// by Renumber and is what the ordered-access queries (Q4/Q5) rely on.
type Node struct {
	Kind     Kind
	Ord      int32  // position in document order (0 = document node)
	Name     string // element name or PI target
	Data     string // text, comment or PI content
	Attrs    []Attr // elements only
	Children []*Node
	Parent   *Node
}

// NewElement returns a detached element node.
func NewElement(name string) *Node { return &Node{Kind: ElementKind, Name: name} }

// NewText returns a detached text node.
func NewText(data string) *Node { return &Node{Kind: TextKind, Data: data} }

// Append attaches child at the end of n's child list and returns child.
func (n *Node) Append(child *Node) *Node {
	child.Parent = n
	n.Children = append(n.Children, child)
	return child
}

// AddElement appends a new child element with the given name.
func (n *Node) AddElement(name string) *Node {
	return n.Append(NewElement(name))
}

// AddText appends a text child (no-op for empty data) and returns n.
func (n *Node) AddText(data string) *Node {
	if data != "" {
		n.Append(NewText(data))
	}
	return n
}

// SetAttr sets (or replaces) an attribute and returns n.
func (n *Node) SetAttr(name, value string) *Node {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return n
		}
	}
	n.Attrs = append(n.Attrs, Attr{name, value})
	return n
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// Root returns the document element (first element child) of a document
// node, or n itself if n is an element. Returns nil for other kinds.
func (n *Node) Root() *Node {
	if n.Kind == ElementKind {
		return n
	}
	if n.Kind == DocumentKind {
		for _, c := range n.Children {
			if c.Kind == ElementKind {
				return c
			}
		}
	}
	return nil
}

// ChildElements returns the child elements with the given name. A nil
// node — an absent parent — has none.
func (n *Node) ChildElements(name string) []*Node {
	if n == nil {
		return nil
	}
	var es []*Node
	for _, c := range n.Children {
		if c.Kind == ElementKind && c.Name == name {
			es = append(es, c)
		}
	}
	return es
}

// FirstChild returns the first child element with the given name, or nil
// — also for a nil node, so a path through an absent element ends in nil.
func (n *Node) FirstChild(name string) *Node {
	if n == nil {
		return nil
	}
	for _, c := range n.Children {
		if c.Kind == ElementKind && c.Name == name {
			return c
		}
	}
	return nil
}

// Text returns the concatenated character data of all descendant text
// nodes (the XPath string value of an element).
func (n *Node) Text() string {
	var b strings.Builder
	n.appendText(&b)
	return b.String()
}

func (n *Node) appendText(b *strings.Builder) {
	if n.Kind == TextKind {
		b.WriteString(n.Data)
		return
	}
	for _, c := range n.Children {
		c.appendText(b)
	}
}

// HasMixedContent reports whether n directly contains both non-whitespace
// text and element children — the content model relational mappings cannot
// represent (paper §3.1.3 item 3).
func (n *Node) HasMixedContent() bool {
	hasText, hasElem := false, false
	for _, c := range n.Children {
		switch c.Kind {
		case TextKind:
			if strings.TrimSpace(c.Data) != "" {
				hasText = true
			}
		case ElementKind:
			hasElem = true
		}
	}
	return hasText && hasElem
}

// Walk visits n and every descendant in document order. Returning false
// from fn prunes the subtree below the current node.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Renumber assigns document order to the whole tree rooted at n, starting
// from 0 at n. Parsing renumbers automatically; call this after building a
// tree by hand if ordered access matters.
func (n *Node) Renumber() {
	ord := int32(0)
	n.Walk(func(d *Node) bool {
		d.Ord = ord
		ord++
		return true
	})
}
