// Package relational is the miniature relational engine underneath the
// three XML-via-relational storage strategies of the paper (DB2 Xcolumn,
// DB2 Xcollection, SQL Server). It provides heap tables over the simulated
// pager, B+tree indexes with equality and range lookups, sequential scans,
// and the small set of physical operators the hand-translated workload
// queries need.
//
// The package is split the way pager.Heap / HeapView is. A DB and its
// Tables are the writer's and only mutate (Insert, DeleteWhere,
// CreateIndex); the engines serialize writers, and each table latches its
// index map besides. Every read — Scan, LookupEq,
// LookupRange, the planner's statistics — is an operator of a TableView
// (view.go), an immutable value safe from any number of goroutines:
// frozen at a commit epoch for readers (DB.View), at pager.LiveEpoch for
// the writer's own look-ups (Table.Live). Schema definition (Create) is
// not concurrent — tables are created before any load or query runs.
package relational

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"

	"xbench/internal/btree"
	"xbench/internal/metrics"
	"xbench/internal/pager"
)

// Null is the sentinel stored for SQL NULL. It is distinct from the empty
// string, which represents a present-but-empty XML element — the
// distinction Q14 (missing element) vs Q15 (empty value) relies on.
const Null = "\x00NULL"

// IsNull reports whether a value is the NULL sentinel.
func IsNull(v string) bool { return v == Null }

// Row is one tuple; values are strings (XML's native value type), with
// Null marking SQL NULL.
type Row []string

// Rec is one stored row where it lies: the encoded record the heap handed
// out, read-only and valid only until the scan callback that received it
// returns (pager.HeapView.Scan). A scan compares columns in place —
// string(r.Col(i)) == x and m[string(r.Col(i))] do not allocate — and
// decodes, with Row, only the rows it keeps.
type Rec []byte

// Col returns the bytes of column i without decoding the others.
func (r Rec) Col(i int) []byte {
	off := 2
	for ; i > 0; i-- {
		off += 4 + int(binary.BigEndian.Uint32(r[off:off+4]))
	}
	l := int(binary.BigEndian.Uint32(r[off : off+4]))
	return r[off+4 : off+4+l]
}

// Null reports whether column i holds the NULL sentinel.
func (r Rec) Null(i int) bool { return string(r.Col(i)) == Null }

// Between reports lo <= column i <= hi (string comparison, which matches
// ISO dates) on the stored bytes; NULL is in no range.
func (r Rec) Between(i int, lo, hi string) bool {
	v := r.Col(i)
	return string(v) != Null && string(v) >= lo && string(v) <= hi
}

// Row decodes the record: one string holding its bytes, the values
// sub-strings of it, and the slice — two allocations whatever the width.
func (r Rec) Row() Row {
	s := string(r)
	row := make(Row, binary.BigEndian.Uint16(r[:2]))
	off := 2
	for i := range row {
		l := int(binary.BigEndian.Uint32(r[off : off+4]))
		off += 4
		row[i] = s[off : off+l]
		off += l
	}
	return row
}

// Clone copies the record out of the page that holds it, for a caller
// that keeps it past the callback it was handed to.
func (r Rec) Clone() Rec { return append(Rec(nil), r...) }

// AppendCol appends a column holding v to the record r, growing it as
// append does, and returns it.
func AppendCol(r Rec, v []byte) Rec {
	binary.BigEndian.PutUint16(r, binary.BigEndian.Uint16(r)+1)
	return append(binary.BigEndian.AppendUint32(r, uint32(len(v))), v...)
}

// Concat returns the record of a's columns followed by b's: a joined row.
func Concat(a, b Rec) Rec {
	out := binary.BigEndian.AppendUint16(make(Rec, 0, len(a)+len(b)-2),
		binary.BigEndian.Uint16(a)+binary.BigEndian.Uint16(b))
	return append(append(out, a[2:]...), b[2:]...)
}

// DB is a collection of tables sharing one pager: the writer's half,
// read through the views it hands out.
type DB struct {
	Pager  *pager.Pager
	tables map[string]*Table
	ops    *ops
}

// ops is the pager's registry and the operator counters, resolved once
// per DB rather than by name under the registry mutex per probe and per
// scanned row, and shared by every view of its tables. A DB is built at
// load time, after the engine's registry is attached, like the B+trees.
type ops struct {
	reg                     *metrics.Registry
	cScan, cScanRow, cProbe *metrics.Counter
}

// NewDB returns an empty database over p.
func NewDB(p *pager.Pager) *DB {
	reg := p.Metrics()
	return &DB{
		Pager:  p,
		tables: map[string]*Table{},
		ops: &ops{
			reg:      reg,
			cScan:    reg.Counter("relational.scan"),
			cScanRow: reg.Counter("relational.scan.row"),
			cProbe:   reg.Counter("relational.probe"),
		},
	}
}

// schema is what a table and its views share and nothing changes: the
// table's name and its columns.
type schema struct {
	Name   string
	Cols   []string
	colIdx map[string]int
}

// Col returns the index of a column. It panics on unknown columns —
// these are static query-plan bugs, not runtime conditions.
func (s *schema) Col(name string) int {
	i, ok := s.colIdx[name]
	if !ok {
		panic(fmt.Sprintf("relational: table %s has no column %q", s.Name, name))
	}
	return i
}

// Table is a heap table with optional B+tree indexes: the writer's half.
type Table struct {
	*schema

	db   *DB
	heap *pager.Heap

	// mu guards indexes: Insert, DeleteWhere and CreateIndex take it
	// exclusive, Live and DB.View shared. No reader takes it.
	mu      sync.RWMutex
	indexes map[string]*btree.Tree
}

// Create makes a new empty table. It panics if the name is taken (schema
// definition bugs should fail loudly).
func (db *DB) Create(name string, cols ...string) *Table {
	if _, dup := db.tables[name]; dup {
		panic(fmt.Sprintf("relational: table %q already exists", name))
	}
	t := &Table{
		schema:  &schema{Name: name, Cols: cols, colIdx: make(map[string]int, len(cols))},
		db:      db,
		heap:    pager.NewHeap(db.Pager, name),
		indexes: map[string]*btree.Tree{},
	}
	for i, c := range cols {
		t.colIdx[c] = i
	}
	db.tables[name] = t
	return t
}

// Table returns a table by name, or nil.
func (db *DB) Table(name string) *Table { return db.tables[name] }

// TableNames returns all table names, sorted.
func (db *DB) TableNames() []string {
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Insert appends a row, encoded as it is stored (Row.Rec, AppendCol),
// and maintains any existing indexes. The table keeps nothing of rec.
func (t *Table) Insert(rec Rec) error {
	if n := int(binary.BigEndian.Uint16(rec)); n != len(t.Cols) {
		return fmt.Errorf("relational: %s: row has %d values, want %d", t.Name, n, len(t.Cols))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rid, err := t.heap.Insert(rec)
	if err != nil {
		return err
	}
	for col, ix := range t.indexes {
		i := t.Col(col)
		if rec.Null(i) {
			continue // NULLs are not indexed
		}
		if err := ix.Insert(string(rec.Col(i)), uint64(rid)); err != nil {
			return err
		}
	}
	return nil
}

// DeleteWhere removes every row whose col equals val, returning the
// number removed. Rows are deleted where they lie: the victims are what
// the live view's equality finds — by an index probe when col is indexed
// and by a filter scan otherwise, uncounted — each victim's heap record
// is tombstoned and its entry is deleted from every index of the table.
// Rows that stay are not touched, so the cost follows the victims (plus
// the scan, on an unindexed column), not the table. Like Insert it syncs
// nothing: its writes dirty pool frames, and the caller syncs them at its
// commit point. Crash-atomicity is the caller's concern too (the engines journal the
// update before applying it and replay from scratch after a crash).
func (t *Table) DeleteWhere(ctx context.Context, col, val string) (n int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	live := TableView{schema: t.schema, heap: t.heap.Live()}
	var hits []uint64
	ix, probed := t.indexes[col]
	if probed {
		if hits, err = ix.Live().Search(ctx, val); err != nil {
			return 0, err
		}
	}
	// Collected before the first delete, which ends the view's validity.
	var rids []pager.RID
	var rows []Row
	if _, err := live.eachEq(ctx, col, val, hits, probed, func(rid pager.RID, r Rec) bool {
		rids = append(rids, rid)
		rows = append(rows, r.Row())
		return true
	}); err != nil {
		return 0, err
	}
	for i, rid := range rids {
		if err := t.heap.Delete(ctx, rid); err != nil {
			return i, err
		}
		for c, ix := range t.indexes {
			v := rows[i][t.Col(c)]
			if IsNull(v) {
				continue // NULLs are not indexed
			}
			if err := ix.Delete(v, uint64(rid)); err != nil {
				return i, fmt.Errorf("relational: %s.%s index: %w", t.Name, c, err)
			}
		}
	}
	return len(rids), nil
}

// CreateIndex builds a B+tree on col over existing rows: one heap scan
// collects (value, RID) — an entry per row, held until the tree has it —
// and the tree takes them as one sorted run, which it packs leaf by leaf
// (btree.InsertRun). Rows with equal (truncated) values keep heap order,
// as an index maintained by Insert has them. Creating the same index
// twice is a no-op.
func (t *Table) CreateIndex(col string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.indexes[col]; ok {
		return nil
	}
	ci := t.Col(col)
	ix, err := btree.New(t.db.Pager, t.Name+"."+col+".idx")
	if err != nil {
		return err
	}
	run := make([]btree.Entry, 0, t.heap.Count())
	err = t.heap.Live().Scan(context.Background(), func(rid pager.RID, rec []byte) bool {
		// Only the indexed column leaves the record: decoding the row would
		// allocate every column of every row once per index.
		if r := Rec(rec); !r.Null(ci) { // NULLs are not indexed
			run = append(run, btree.Entry{Key: string(r.Col(ci)), Val: uint64(rid)})
		}
		return true
	})
	if err != nil {
		return err
	}
	btree.SortEntries(run)
	if err := ix.InsertRun(run); err != nil {
		return err
	}
	// Write the header page btree.Open reads to reopen the index without a
	// reload (ROADMAP item 3's restart); recovery today rebuilds it.
	if err := ix.Sync(); err != nil {
		return err
	}
	t.indexes[col] = ix
	return nil
}

// Rec encodes the row as it is stored: a column count, then each value
// length-prefixed.
func (row Row) Rec() Rec {
	n := 2
	for _, v := range row {
		n += 4 + len(v)
	}
	buf := make(Rec, 0, n)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(row)))
	for _, v := range row {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v)))
		buf = append(buf, v...)
	}
	return buf
}

// SortKey is one key of Sort: column Col compared as a string with NULL
// least — XQuery's order by puts an empty key first — or, with IDSuffix,
// by the number that ends a generated id ("O25" sorts as 25), which is
// document order.
type SortKey struct {
	Col      int
	IDSuffix bool
}

// Sort orders rows stably by keys, the first key first. Each row's keys
// are decoded once, before the sort compares any.
func Sort(rows []Rec, keys ...SortKey) {
	nk := len(keys)
	vals := make([]sortVal, len(rows)*nk)
	sorted := make([]sortRow, len(rows))
	for i, r := range rows {
		kv := vals[i*nk : (i+1)*nk : (i+1)*nk]
		for j, k := range keys {
			kv[j] = k.decode(r)
		}
		sorted[i] = sortRow{r, kv}
	}
	slices.SortStableFunc(sorted, func(a, b sortRow) int {
		for j, va := range a.keys {
			vb := b.keys[j]
			if c := cmp.Compare(va.n, vb.n); c != 0 {
				return c
			}
			if c := bytes.Compare(va.b, vb.b); c != 0 {
				return c
			}
		}
		return 0
	})
	for i, s := range sorted {
		rows[i] = s.rec
	}
}

// sortRow is a row with its keys decoded.
type sortRow struct {
	rec  Rec
	keys []sortVal
}

// sortVal is a row's key as Sort compares it: n, then b. A string key is
// n 0 for NULL, n 1 and its bytes otherwise; an IDSuffix key is its
// number.
type sortVal struct {
	n int
	b []byte
}

func (k SortKey) decode(r Rec) sortVal {
	c := r.Col(k.Col)
	switch {
	case k.IDSuffix:
		return sortVal{n: idSuffix(c)}
	case string(c) == Null:
		return sortVal{}
	}
	return sortVal{n: 1, b: c}
}

// idSuffix is the number after an id's non-digit prefix, 0 when the rest
// is not all digits.
func idSuffix(id []byte) int {
	i := 0
	for i < len(id) && (id[i] < '0' || id[i] > '9') {
		i++
	}
	n := 0
	for _, c := range id[i:] {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	return n
}
