// Package toxgene is a template-based synthetic XML document generator in
// the spirit of ToXgene (Barbosa et al., WebDB 2002), the tool the XBench
// paper uses for database generation (paper §2.1.3).
//
// A Template declares an element type: its occurrence distribution within
// the parent, presence probability for optional elements, attribute
// generators, a content generator for leaves, and child templates. Emit
// walks a template with a deterministic RNG and streams the instance into
// an xmldom.Encoder.
//
// Value generators receive a Ctx exposing the RNG, the instance path
// (index of each ancestor occurrence), and shared variables — enough to
// mint unique ids and cross references.
package toxgene

import (
	"fmt"

	"xbench/internal/stats"
	"xbench/internal/xmldom"
)

// Ctx is the generation context passed to value generators.
type Ctx struct {
	// R is the RNG for the current element instance.
	R *stats.RNG
	// Path holds the occurrence index of each open template level, root
	// first. Path[len(Path)-1] is the index of the current instance among
	// its siblings produced by the same template.
	Path []int
	// Vars carries user state across generator calls (e.g. the current
	// entry's headword so quotation generators can reference it).
	Vars map[string]any
}

// Index returns the innermost occurrence index.
func (c *Ctx) Index() int {
	if len(c.Path) == 0 {
		return 0
	}
	return c.Path[len(c.Path)-1]
}

// IndexAt returns the occurrence index at template depth d (0 = root).
// Out-of-range depths return 0.
func (c *Ctx) IndexAt(d int) int {
	if d < 0 || d >= len(c.Path) {
		return 0
	}
	return c.Path[d]
}

// Gen produces a string value from the context.
type Gen func(*Ctx) string

// Const returns a generator that always produces s.
func Const(s string) Gen { return func(*Ctx) string { return s } }

// AttrTmpl declares one attribute.
type AttrTmpl struct {
	Name string
	// Value generates the attribute value.
	Value Gen
	// Prob is the presence probability; 0 means always present.
	Prob float64
}

// Tmpl declares one element type.
type Tmpl struct {
	// Name of the emitted element.
	Name string
	// Count is the occurrence distribution within the parent. nil means
	// exactly one occurrence.
	Count stats.Dist
	// Prob is the presence probability for optional elements; 0 or 1
	// means mandatory (given Count > 0 occurrences were drawn).
	Prob float64
	// Attrs declares attributes in emission order.
	Attrs []AttrTmpl
	// Content generates leaf text. A template may have both Content and
	// Children, producing mixed content: the text is emitted first, then
	// the children, then optionally Tail.
	Content Gen
	// Tail generates trailing text after the children (mixed content).
	Tail Gen
	// Children are emitted in order.
	Children []*Tmpl
	// Before, if set, runs once per instance before emission; it can seed
	// ctx.Vars for descendant generators.
	Before func(*Ctx)
}

// Emit writes one or more instances of t (per its Count/Prob) into e.
// The rng must be dedicated to this subtree; Emit splits per-instance
// streams from it so documents are insensitive to sibling reordering.
func Emit(e *xmldom.Encoder, t *Tmpl, rng *stats.RNG, ctx *Ctx) error {
	if ctx == nil {
		ctx = &Ctx{Vars: map[string]any{}}
	}
	n := 1
	if t.Count != nil {
		n = stats.DrawInt(rng, t.Count)
	}
	for i := 0; i < n; i++ {
		inst := rng.Split(uint64(i))
		if p := t.Prob; p > 0 && p < 1 && !inst.Bool(p) {
			continue
		}
		if err := emitOne(e, t, inst, ctx, i); err != nil {
			return err
		}
	}
	return nil
}

func emitOne(e *xmldom.Encoder, t *Tmpl, rng *stats.RNG, ctx *Ctx, idx int) error {
	ctx.Path = append(ctx.Path, idx)
	defer func() { ctx.Path = ctx.Path[:len(ctx.Path)-1] }()
	ctx.R = rng
	if t.Before != nil {
		t.Before(ctx)
	}
	var attrs []string
	for _, a := range t.Attrs {
		if a.Prob > 0 && a.Prob < 1 && !rng.Bool(a.Prob) {
			continue
		}
		ctx.R = rng
		attrs = append(attrs, a.Name, a.Value(ctx))
	}
	e.Begin(t.Name, attrs...)
	if t.Content != nil {
		ctx.R = rng
		e.Text(t.Content(ctx))
	}
	for ci, child := range t.Children {
		if err := Emit(e, child, rng.Split(0x10000+uint64(ci)), ctx); err != nil {
			return err
		}
	}
	if t.Tail != nil {
		ctx.R = rng
		e.Text(t.Tail(ctx))
	}
	e.End()
	return nil
}

// Document generates a complete document with t as the root element and
// returns the serialized bytes.
func Document(t *Tmpl, seed uint64) ([]byte, error) {
	e := xmldom.NewEncoder()
	root := *t
	root.Count = nil // exactly one root
	root.Prob = 0
	if err := Emit(e, &root, stats.NewRNG(seed), nil); err != nil {
		return nil, err
	}
	b, err := e.Bytes()
	if err != nil {
		return nil, fmt.Errorf("toxgene: %w", err)
	}
	return b, nil
}
