// Package xmldom implements the XML substrate of XBench from scratch: a
// parser that writes each document as a binary DOM record (Record, the
// persistent DOM the native engine pages in), a cursor that navigates a
// record in place (Ref) and serializes it, a Writer that builds records
// element by element, and a streaming encoder used by the database
// generators and the relational engines' results.
//
// Only the XML 1.0 subset exercised by the benchmark is supported:
// elements, attributes, character data, CDATA sections, comments,
// processing instructions, the five predefined entities and numeric
// character references. DTDs are skipped (the paper turns validation off
// during loading).
package xmldom

import "bytes"

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

// Node is a parsed document held as one Record of its own. Its one caller
// is the benchmark's layer probe, which times Parse and XMLBytes: the
// parser and serializer the engines run. ROADMAP item 1 (b) deletes it;
// new code calls ParseRecord and Ref.AppendXML.
type Node struct{ rec Record }

// Parse parses a complete XML document into a fresh record, as ParseRecord
// does.
func Parse(data []byte) (*Node, error) {
	n := new(Node)
	if err := ParseRecord(&n.rec, data); err != nil {
		return nil, err
	}
	return n, nil
}

// XMLBytes returns the document serialized: Root().AppendXML of its record.
func (n *Node) XMLBytes() []byte {
	var buf bytes.Buffer
	n.rec.Root().AppendXML(&buf)
	return buf.Bytes()
}
