// Package shredder maps documents to relational rows by the annotated
// class schemas of internal/xmlschema (Elem.Rows), as the paper's systems
// read an annotated XSD or a DAD (§3.1.1, §3.1.2). A Store holds one
// mapping's rows: the shredded tables of DB2 Xcollection and SQL Server,
// or the side tables of DB2 Xcolumn. One walker over a parsed record
// fills either, and everything else asked of a mapping — its tables, the
// column an index target lands on, the delete cascade of a document — is
// derived from the same annotations.
//
// The mapping reproduces the documented problems of shredding (§3.1.3):
//
//   - Document order is not represented (no order columns), so ordered
//     access and reconstruction are only accidentally correct.
//   - Mixed-content elements cannot be mapped; with Options.DropMixed
//     (SQL Server) their text is lost entirely, otherwise (Xcollection)
//     only the flattened text survives, losing inline markup.
//   - Chain relationships rely on the unique ids the generators add to
//     ambiguous elements (sec/@id), per the paper's fix.
//   - A decomposition row limit per document (DB2's 1024-row limit,
//     scaled to this reproduction's database sizes) rejects large
//     single-document databases.
//
// ShredDocument and DeleteDocumentRows only insert and delete rows.
// Committing them is the caller's: the engine's load loop syncs the store
// after every document (Sync — the document-at-a-time commit Table 4
// prices), and an update is committed once, by engbase.Base.publish.
package shredder

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"xbench/internal/core"
	"xbench/internal/relational"
	"xbench/internal/xmldom"
	"xbench/internal/xmlschema"
)

// Options control the engine-specific mapping behavior.
type Options struct {
	// DropMixed discards the character data of mixed-content elements
	// (SQL Server, paper §3.1.3 item 3). When false the flattened text is
	// stored (structure is still lost).
	DropMixed bool
	// RowLimitPerDoc rejects any document that decomposes into more rows
	// (DB2 Xcollection's 1024-row limit, §3.1.3 item 5). 0 disables.
	RowLimitPerDoc int
}

// Store holds the rows of one database under one mapping of its class:
// the writer's half; queries read a view of its tables
// (relational.DB.View).
type Store struct {
	Class core.Class
	DB    *relational.DB
	Opts  Options
	// SkippedMixed counts mixed-content elements whose text was dropped.
	SkippedMixed int
	m            *mapping
	// w walks every document ShredDocument and Count are handed, keeping
	// its buffers from one to the next: both run on the writer, which the
	// engine's latch or the loading goroutine serializes.
	w walker
}

// NewStore creates the tables of class's mapping m in db.
func NewStore(class core.Class, m xmlschema.Mapping, db *relational.DB, opts Options) *Store {
	mp := mappings[class][m]
	for _, t := range mp.tables {
		db.Create(t.table, t.cols...)
	}
	return &Store{Class: class, DB: db, Opts: opts, m: mp}
}

// Tables returns the tables of class's mapping m in creation order.
func Tables(class core.Class, m xmlschema.Mapping) []string {
	var names []string
	for _, t := range mappings[class][m].tables {
		names = append(names, t.table)
	}
	return names
}

// Columns returns the columns of a table of either mapping in stored
// order, nil for a name no mapping has. A query plan resolves its column
// names through it once, before any store exists.
func Columns(table string) []string { return columns[table] }

// TargetColumn maps a Table 3 index target ("hw", "item/@id") to the
// (table, column) of class's mapping m holding that attribute or element
// text. The engines build their indexes through it, and the planner uses
// it to route costed index probes to the right table.
func TargetColumn(class core.Class, m xmlschema.Mapping, target string) (table, col string, ok bool) {
	for _, t := range mappings[class][m].tables {
		for i, c := range t.srcs {
			if c.target == target {
				return t.table, t.cols[i], true
			}
		}
	}
	return "", "", false
}

// UnitDocID returns the root id of a document the update workload can
// target: one whose root element itself makes a shredded row keyed by an
// attribute, a whole <order> (DC/MD) or <article> (TC/MD), so that
// document-granularity updates map to a relational cascade keyed by that
// id. Other roots (the shared customers/items/... documents of DC/MD)
// return ok=false.
func UnitDocID(class core.Class, rec *xmldom.Record) (string, bool) {
	u := mappings[class][xmlschema.Shredded].unit
	root := rec.Element()
	if u == nil || root.IsZero() || string(root.Name()) != u.elem.Name {
		return "", false
	}
	id, ok := root.Attr(u.srcs[0].path[0])
	return string(id), ok && len(id) > 0
}

// ShredDocument decomposes one document, parsed into rec, into the rows
// of the store's mapping and returns how many. doc is the document's
// reference: what a doc() column holds, and what an error names. A
// document the DAD does not reach gets no rows; any other mapping refuses
// it. It only inserts: the caller commits. It walks the document once and
// then refuses one over Options.RowLimitPerDoc with Count's error, leaving
// the rows to its caller: a failed load drops every file, and an update's
// Validate refused such a document before the mutation bracket.
func (s *Store) ShredDocument(doc string, rec *xmldom.Record) (int, error) {
	rows, skipped, err := s.w.walk(s.m, rec, doc, s.DB, s.Opts.DropMixed)
	s.SkippedMixed += skipped
	if err == nil {
		err = s.overLimit(rows)
	}
	if err != nil {
		return rows, fmt.Errorf("shredder: %s: %w", doc, err)
	}
	return rows, nil
}

// Count returns the number of rows the document parsed into rec shreds
// into, without building them, refusing one the mapping does not reach
// or, under Options.RowLimitPerDoc, one of more rows.
func (s *Store) Count(rec *xmldom.Record) (int, error) {
	rows, _, err := s.w.walk(s.m, rec, "", nil, false)
	if err != nil {
		return 0, err
	}
	return rows, s.overLimit(rows)
}

// overLimit refuses a document of rows rows under Options.RowLimitPerDoc.
func (s *Store) overLimit(rows int) error {
	if limit := s.Opts.RowLimitPerDoc; limit > 0 && rows > limit {
		return fmt.Errorf("document decomposes into %d rows, exceeding the %d-row limit: %w",
			rows, limit, core.ErrUnsupported)
	}
	return nil
}

// DeleteDocumentRows removes every row of the document whose unit key is
// k and returns how many: under the shredded mapping k is a unit
// document's root id, which its root's row holds and every table below
// copies; under the DAD it is the doc() reference every side table
// carries. A column it deletes by is indexed first, once: the shredding
// engines' load already built each of them (key columns), Xcolumn's first
// delete builds them. It leaves the commit to its caller.
func (s *Store) DeleteDocumentRows(ctx context.Context, k string) (int, error) {
	if len(s.m.cascade) == 0 {
		return 0, fmt.Errorf("shredder: class %v has no unit documents: %w", s.Class, core.ErrUnsupported)
	}
	deleted := 0
	for _, c := range s.m.cascade {
		t := s.DB.Table(c.table)
		if err := t.CreateIndex(c.col); err != nil {
			return deleted, err
		}
		n, err := t.DeleteWhere(ctx, c.col, k)
		if err != nil {
			return deleted, fmt.Errorf("shredder: delete %s rows of %s: %w", c.table, k, err)
		}
		deleted += n
	}
	return deleted, nil
}

// Sync forces the tables' dirty pages to disk: the end of a load's
// per-document transaction.
func (s *Store) Sync() error { return s.DB.Pager.SyncAll() }

// mappings holds every class's two mappings, and columns every table's
// columns, compiled from the annotated schemas once.
var (
	columns  = map[string][]string{}
	mappings = func() (ms [4][2]*mapping) {
		for _, class := range core.Classes {
			for _, m := range []xmlschema.Mapping{xmlschema.Shredded, xmlschema.DAD} {
				ms[class][m] = compile(xmlschema.For(class), m)
				for _, t := range ms[class][m].tables {
					columns[t.table] = t.cols
				}
			}
		}
		return ms
	}()
)

// mapping is one mapping of a class: its tables in creation order, and
// the walk from each document root it reaches to the elements making rows.
type mapping struct {
	tables []*node // the elements that make rows, by their tables' creation order
	roots  []*node
	unit   *node // the root of a unit document, nil when the class has none
	// whole marks the DAD: the documents are kept whole beside its side
	// tables, so a document it does not reach is stored with no rows.
	whole bool
	// cascade is where a document's unit key lies, by creation order:
	// the root's own id and every key column copying it, or each side
	// table's doc() column.
	cascade []tableCol
}

type tableCol struct{ table, col string }

// node is an element that makes a row or has a descendant that does.
type node struct {
	elem     *xmlschema.Elem
	all      bool // the element repeats: the walk follows every sibling of its name
	children []*node
	table    string   // the table it makes rows of, "" for none
	idx      int      // the table's position in the mapping's
	specs    []string // the column annotations
	cols     []string
	srcs     []column
}

// kind is where a column's value comes from; see xmlschema.Elem.Rows.
type kind uint8

const (
	text kind = iota
	attr
	key
	position
	seqno
	top
	exists
	doc
)

var functions = map[string]kind{"key": key, "position": position, "seqno": seqno,
	"top": top, "exists": exists, "doc": doc}

type column struct {
	kind   kind
	path   []string // a text or exists path's steps; attr's attribute
	mixed  bool     // text the schema marks mixed: DropMixed drops it
	from   *node    // key: the enclosing element whose row it copies from
	col    int      // key: the column of from it copies
	target string   // the index target the column answers (TargetColumn)
}

// compile builds mapping m of schema s; an annotation it cannot resolve
// panics.
func compile(s *xmlschema.Schema, m xmlschema.Mapping) *mapping {
	mp, memo := &mapping{whole: m == xmlschema.DAD}, map[*xmlschema.Elem]*node{}
	var visit func(e *xmlschema.Elem) *node
	visit = func(e *xmlschema.Elem) *node {
		if n := memo[e]; n != nil {
			return n
		}
		n := &node{elem: e, all: e.Occurs >= xmlschema.Many}
		memo[e] = n
		if n.table, n.specs = e.Relation(m); n.table != "" {
			mp.tables = append(mp.tables, n)
		}
		children := e.Children
		if e.Recursive {
			children = append(children[:len(children):len(children)], e)
		}
		for _, c := range children {
			if cn := visit(c); cn.table != "" || cn.children != nil {
				n.children = append(n.children, cn)
			}
		}
		return n
	}
	for _, r := range append([]*xmlschema.Elem{s.Root}, s.ExtraRoots...) {
		if n := visit(r); n.table != "" || n.children != nil {
			mp.roots = append(mp.roots, n)
		}
	}
	order := s.Tables()
	slices.SortFunc(mp.tables, func(a, b *node) int {
		return slices.Index(order, a.table) - slices.Index(order, b.table)
	})
	for i, t := range mp.tables {
		if !slices.Contains(order, t.table) {
			panic("shredder: table " + t.table + " has no place in the creation order")
		}
		t.idx = i
		for _, spec := range t.specs {
			name, _ := xmlschema.Column(spec)
			t.cols = append(t.cols, name)
		}
	}
	for _, t := range mp.tables {
		for _, spec := range t.specs {
			t.srcs = append(t.srcs, mp.column(t, spec))
		}
	}
	if u := memo[s.Root]; u.table != "" && u.srcs[0].kind == attr {
		mp.unit = u
	}
	for _, t := range mp.tables {
		i := slices.IndexFunc(t.srcs, func(c column) bool {
			return mp.whole && c.kind == doc || mp.unit != nil && c.kind == key && c.from == mp.unit && c.col == 0
		})
		if t == mp.unit {
			i = 0
		}
		if i >= 0 {
			mp.cascade = append(mp.cascade, tableCol{t.table, t.cols[i]})
		}
	}
	return mp
}

// column compiles the column annotation spec of t.
func (mp *mapping) column(t *node, spec string) column {
	_, src := xmlschema.Column(spec)
	if name, ok := strings.CutPrefix(src, "@"); ok {
		return column{kind: attr, path: []string{name}, target: t.elem.Name + "/" + src}
	}
	c := column{kind: text}
	if fn, arg, call := strings.Cut(strings.TrimSuffix(src, ")"), "("); call {
		k, ok := functions[fn]
		if !ok {
			panic("shredder: " + t.table + ": unknown source " + src)
		}
		c.kind, src = k, arg
	}
	switch c.kind {
	case key:
		tn, cn, _ := strings.Cut(src, ".")
		i := slices.IndexFunc(mp.tables, func(f *node) bool { return f.table == tn })
		if i < 0 || !slices.Contains(mp.tables[i].cols, cn) {
			panic("shredder: " + t.table + ": no column " + src)
		}
		c.from, c.col = mp.tables[i], slices.Index(mp.tables[i].cols, cn)
	case text, exists:
		d := t.elem.Descendant(src)
		if d == nil {
			panic("shredder: " + t.table + ": no element " + src)
		}
		if src != "." {
			c.path = strings.Split(src, "/")
		}
		c.mixed = c.kind == text && d.Mixed
		if c.kind == text && len(c.path) > 0 {
			c.target = c.path[len(c.path)-1]
		}
	}
	return c
}

// walker walks one document by one mapping, inserting its rows into db or,
// when db is nil, counting them. A Store's walker keeps its buffers.
type walker struct {
	doc       []byte
	db        *relational.DB
	dropMixed bool
	rows      int
	skipped   int     // mixed-content values dropped
	seq       []int   // the document's rows so far, per table
	stack     []frame // the rows of the elements enclosing the walk
	num       []byte  // a number being formatted
}

// frame is the stored row of an element on the walk's path; its buffer
// serves the next row made at its depth.
type frame struct {
	t   *node
	rec relational.Rec
}

var (
	null, zero, one = []byte(relational.Null), []byte("0"), []byte("1")

	// errUnmapped reports a document root the mapping does not reach.
	errUnmapped = errors.New("no table of the mapping is reached from it")
)

// walk walks the document doc parsed into rec by mapping m and returns
// the rows made and the mixed-content values dropped. A document whose
// root m does not reach is refused, but stored with no rows under the
// DAD (m.whole), which costs no error value.
func (w *walker) walk(m *mapping, rec *xmldom.Record, doc string, db *relational.DB, dropMixed bool) (rows, skipped int, err error) {
	root := rec.Element()
	i := slices.IndexFunc(m.roots, func(n *node) bool { return string(root.Name()) == n.elem.Name })
	if i < 0 {
		if db != nil && m.whole {
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("root <%s>: %w", root.Name(), errUnmapped)
	}
	w.doc, w.db, w.dropMixed, w.rows, w.skipped = append(w.doc[:0], doc...), db, dropMixed, 0, 0
	w.seq, w.stack = append(w.seq[:0], make([]int, len(m.tables))...), w.stack[:0]
	err = w.element(m.roots[i], root, 1)
	return w.rows, w.skipped, err
}

// element makes the row of x, the pos-th instance of n among its
// siblings, then walks, in schema order, every instance of a repeating
// child and the first of any other.
func (w *walker) element(n *node, x xmldom.Ref, pos int) error {
	depth := len(w.stack)
	if n.table != "" {
		w.seq[n.idx]++
		if w.db != nil {
			if err := w.db.Table(n.table).Insert(w.row(n, x, pos)); err != nil {
				return err
			}
		}
		w.rows++
	}
	for _, c := range n.children {
		i := 0
		for y := x.Child(c.elem.Name); !y.IsZero(); y = y.Sibling(c.elem.Name) {
			i++
			if err := w.element(c, y, i); err != nil {
				return err
			}
			if !c.all {
				break
			}
		}
	}
	w.stack = w.stack[:depth]
	return nil
}

// row pushes the frame of x's row and encodes the row in it.
func (w *walker) row(t *node, x xmldom.Ref, pos int) relational.Rec {
	depth := len(w.stack)
	w.stack = slices.Grow(w.stack, 1)[:depth+1]
	f := &w.stack[depth]
	f.t, f.rec = t, append(f.rec[:0], 0, 0)
	for i := range t.srcs {
		f.rec = relational.AppendCol(f.rec, w.value(t, &t.srcs[i], x, pos))
	}
	return f.rec
}

// value returns the value of column c of x's row, a row of t.
func (w *walker) value(t *node, c *column, x xmldom.Ref, pos int) []byte {
	enclosing := w.stack[:len(w.stack)-1]
	switch c.kind {
	case text, exists:
		y := x
		for _, step := range c.path {
			y = y.Child(step)
		}
		switch {
		case y.IsZero():
			break
		case c.kind == exists:
			return one
		case c.mixed && w.dropMixed && y.HasMixedContent():
			// The element's text cannot be mapped (paper §3.1.3 item 3);
			// its presence survives as an empty value, its content is lost.
			w.skipped++
			return nil
		default:
			return y.Text()
		}
	case attr:
		if v, ok := x.Attr(c.path[0]); ok {
			return v
		}
	case key:
		for i := len(enclosing) - 1; i >= 0; i-- {
			if enclosing[i].t == c.from {
				return enclosing[i].rec.Col(c.col)
			}
		}
	case position, seqno:
		if c.kind == seqno {
			pos = w.seq[t.idx]
		}
		w.num = strconv.AppendInt(w.num[:0], int64(pos), 10)
		return w.num
	case top:
		if slices.ContainsFunc(enclosing, func(f frame) bool { return f.t == t }) {
			return zero
		}
		return one
	case doc:
		return w.doc
	}
	return null
}
