// Package relational is the miniature relational engine underneath the
// three XML-via-relational storage strategies of the paper (DB2 Xcolumn,
// DB2 Xcollection, SQL Server). It provides heap tables over the simulated
// pager, B+tree indexes with equality and range lookups, sequential scans,
// and the small set of physical operators the hand-translated workload
// queries need.
//
// Concurrency: the read operators (Scan, LookupEq, LookupRange) are
// safe from many goroutines once loading is done; each table guards its
// index map with a reader/writer latch so Insert, DeleteWhere and
// CreateIndex exclude readers. Schema definition (Create) is not
// concurrent — tables are created before any load or query runs.
package relational

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
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

// DB is a collection of tables sharing one pager.
type DB struct {
	Pager  *pager.Pager
	tables map[string]*Table

	// The pager's registry and the operator counters, resolved once here
	// rather than by name under the registry mutex per probe and per
	// scanned row. A DB is built at load time, after the engine's
	// registry is attached, like the B+trees that bind the same way.
	reg                     *metrics.Registry
	cScan, cScanRow, cProbe *metrics.Counter
}

// NewDB returns an empty database over p.
func NewDB(p *pager.Pager) *DB {
	reg := p.Metrics()
	return &DB{
		Pager:    p,
		tables:   map[string]*Table{},
		reg:      reg,
		cScan:    reg.Counter("relational.scan"),
		cScanRow: reg.Counter("relational.scan.row"),
		cProbe:   reg.Counter("relational.probe"),
	}
}

// Table is a heap table with optional B+tree indexes.
type Table struct {
	Name string
	Cols []string

	db     *DB
	colIdx map[string]int
	heap   *pager.Heap

	// mu guards indexes: writers (Insert, DeleteWhere, CreateIndex,
	// Truncate) take it exclusive, readers take it shared just long enough
	// to fetch the index pointer — the btree has its own latch for the
	// traversal.
	mu      sync.RWMutex
	indexes map[string]*btree.Tree

	// snap, when non-nil, marks this table as an immutable epoch-pinned
	// snapshot (snapshot.go): reads serve the frozen heap view and index
	// views, mutations fail with ErrSnapshotWrite.
	snap *tableSnap
}

// Create makes a new empty table. It panics if the name is taken (schema
// definition bugs should fail loudly).
func (db *DB) Create(name string, cols ...string) *Table {
	if _, dup := db.tables[name]; dup {
		panic(fmt.Sprintf("relational: table %q already exists", name))
	}
	t := &Table{
		Name:    name,
		Cols:    cols,
		db:      db,
		colIdx:  make(map[string]int, len(cols)),
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

// Truncate empties every table: heap pages and all indexes are discarded
// (index pager files are abandoned; CreateIndex builds fresh ones). The
// schema survives, so a failed bulk load leaves an empty but loadable
// database.
func (db *DB) Truncate() error {
	for _, name := range db.TableNames() {
		t := db.tables[name]
		if err := t.heap.Reset(); err != nil {
			return err
		}
		t.mu.Lock()
		t.indexes = map[string]*btree.Tree{}
		t.mu.Unlock()
	}
	return nil
}

// TableNames returns all table names, sorted.
func (db *DB) TableNames() []string {
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Col returns the index of a column. It panics on unknown columns —
// these are static query-plan bugs, not runtime conditions.
func (t *Table) Col(name string) int {
	i, ok := t.colIdx[name]
	if !ok {
		panic(fmt.Sprintf("relational: table %s has no column %q", t.Name, name))
	}
	return i
}

// Count returns the number of rows.
func (t *Table) Count() int {
	if t.snap != nil {
		return t.snap.heap.Count()
	}
	return t.heap.Count()
}

// Insert appends a row and maintains any existing indexes.
func (t *Table) Insert(row Row) error {
	if t.snap != nil {
		return ErrSnapshotWrite
	}
	if len(row) != len(t.Cols) {
		return fmt.Errorf("relational: %s: row has %d values, want %d", t.Name, len(row), len(t.Cols))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rid, err := t.heap.Insert(encodeRow(row))
	if err != nil {
		return err
	}
	for col, ix := range t.indexes {
		v := row[t.Col(col)]
		if IsNull(v) {
			continue // NULLs are not indexed
		}
		if err := ix.Insert(v, uint64(rid)); err != nil {
			return err
		}
	}
	return nil
}

// Flush persists buffered heap pages (end of bulk load).
func (t *Table) Flush() error { return t.heap.Flush() }

// DeleteWhere removes every row whose col equals val, returning the
// number removed. Rows are deleted where they lie: the victims are found
// by an index probe when col is indexed and by a filter scan otherwise,
// each victim's heap record is tombstoned and its entry is deleted from
// every index of the table. Rows that stay are not touched, so the cost
// follows the victims (plus the scan, on an unindexed column), not the
// table. Like Insert it leaves the tail page buffered: the caller flushes
// at its commit point. Crash-atomicity is the caller's concern too (the
// engines journal the update before applying it and replay from scratch
// after a crash).
func (t *Table) DeleteWhere(ctx context.Context, col, val string) (int, error) {
	if t.snap != nil {
		return 0, ErrSnapshotWrite
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rids, rows, err := t.victimsLocked(ctx, col, val)
	if err != nil || len(rids) == 0 {
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

// victimsLocked returns the rows with col == val and their RIDs, found
// by an index probe or a filter scan. Either way the one column is
// compared in place (a probe also returns rows that only share the
// truncated key, see LookupRange) and only the victims are decoded.
func (t *Table) victimsLocked(ctx context.Context, col, val string) ([]pager.RID, []Row, error) {
	ci := t.Col(col)
	var rids []pager.RID
	var rows []Row
	keep := func(rid pager.RID, rec []byte) bool {
		if string(Rec(rec).Col(ci)) == val {
			rids = append(rids, rid)
			rows = append(rows, Rec(rec).Row())
		}
		return true
	}
	ix, ok := t.indexes[col]
	if !ok {
		err := t.heap.Scan(ctx, keep)
		return rids, rows, err
	}
	hits, err := ix.Search(ctx, val)
	if err != nil {
		return nil, nil, err
	}
	for _, h := range hits {
		rec, err := t.heap.Get(ctx, pager.RID(h))
		if err != nil {
			return nil, nil, err
		}
		keep(pager.RID(h), rec)
	}
	return rids, rows, nil
}

// CreateIndex builds a B+tree on col over existing rows. Creating the same
// index twice is a no-op.
func (t *Table) CreateIndex(col string) error {
	if t.snap != nil {
		return ErrSnapshotWrite
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.createIndexLocked(col)
}

// createIndexLocked is CreateIndex under an already-held exclusive latch.
func (t *Table) createIndexLocked(col string) error {
	if _, ok := t.indexes[col]; ok {
		return nil
	}
	ci := t.Col(col)
	ix, err := btree.New(t.db.Pager, t.Name+"."+col+".idx")
	if err != nil {
		return err
	}
	var inner error // an Insert failure; Scan itself returns nil on an early stop
	err = t.heap.Scan(context.Background(), func(rid pager.RID, rec []byte) bool {
		// Only the indexed column leaves the record: decoding the row would
		// allocate every column of every row once per index.
		if r := Rec(rec); !r.Null(ci) {
			inner = ix.Insert(string(r.Col(ci)), uint64(rid))
		}
		return inner == nil
	})
	if inner != nil {
		return inner
	}
	if err != nil {
		return err
	}
	// Persist the tree header so the index survives crash recovery.
	if err := ix.Sync(); err != nil {
		return err
	}
	t.indexes[col] = ix
	return nil
}

// HasIndex reports whether col is indexed.
func (t *Table) HasIndex(col string) bool {
	_, ok := t.index(col)
	return ok
}

// indexReader is what the read operators need of an index, whichever
// mode the table is in.
type indexReader interface {
	Search(ctx context.Context, key string) ([]uint64, error)
	Range(ctx context.Context, lo, hi string, fn func(key string, val uint64) bool) error
	Height() int
}

// index fetches an index reader: the live tree under the shared latch,
// or the epoch-pinned view of a snapshot table (no latch — the snap map
// is immutable).
func (t *Table) index(col string) (indexReader, bool) {
	if t.snap != nil {
		ix, ok := t.snap.indexes[col]
		return ix, ok
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix, ok := t.indexes[col]
	return ix, ok
}

// Scan visits all rows in address order (a full table scan: every heap
// page is read), handing fn each record where it lies. Returning false
// stops early. Cancellation via ctx is honored at page-fetch granularity.
func (t *Table) Scan(ctx context.Context, fn func(Rec) bool) error {
	t.db.cScan.Inc()
	defer t.db.reg.StartSpan(metrics.PhaseScan).End()
	var visited int64
	err := t.scanRecords(ctx, func(_ pager.RID, rec []byte) bool {
		visited++
		return fn(rec)
	})
	t.db.cScanRow.Add(visited)
	return err
}

// LookupEq returns rows where col == val, using an index when available
// and falling back to a sequential scan otherwise.
func (t *Table) LookupEq(ctx context.Context, col, val string) ([]Row, error) {
	return t.LookupEqN(ctx, col, val, 0)
}

// LookupRange returns rows with lo <= col <= hi (Rec.Between), via index
// when available. Index keys are truncated to btree.MaxKey, so a probe
// also returns rows that only share a key's prefix: every lookup
// re-checks the column on the stored bytes before it decodes the row.
func (t *Table) LookupRange(ctx context.Context, col, lo, hi string) ([]Row, error) {
	ix, ok := t.index(col)
	if !ok {
		return t.ScanRange(ctx, col, lo, hi)
	}
	t.db.cProbe.Inc()
	defer t.db.reg.StartSpan(metrics.PhaseIndexProbe).End()
	ci := t.Col(col)
	var rows []Row
	var inner error
	err := ix.Range(ctx, lo, hi, func(_ string, v uint64) bool {
		rec, e := t.getRecord(ctx, pager.RID(v))
		if e != nil {
			inner = e
			return false
		}
		if Rec(rec).Between(ci, lo, hi) {
			rows = append(rows, Rec(rec).Row())
		}
		return true
	})
	if inner != nil {
		return nil, inner
	}
	return rows, err
}

// LookupEqN is LookupEq with a row cap: the planner's limit pushdown
// (positional [1] access) fetches only the first n matches instead of
// materializing every row and discarding the rest. n <= 0 means no cap.
func (t *Table) LookupEqN(ctx context.Context, col, val string, n int) ([]Row, error) {
	ix, ok := t.index(col)
	if !ok {
		return t.scanEq(ctx, col, val, n)
	}
	t.db.cProbe.Inc()
	sp := t.db.reg.StartSpan(metrics.PhaseIndexProbe)
	rids, err := ix.Search(ctx, val)
	sp.End()
	if err != nil {
		return nil, err
	}
	want := len(rids)
	if n > 0 && n < want {
		want = n
	}
	ci := t.Col(col)
	rows := make([]Row, 0, want)
	for _, r := range rids {
		if len(rows) == want {
			break
		}
		rec, err := t.getRecord(ctx, pager.RID(r))
		if err != nil {
			return nil, err
		}
		if string(Rec(rec).Col(ci)) == val {
			rows = append(rows, Rec(rec).Row())
		}
	}
	return rows, nil
}

// ScanEq filters sequentially for col == val even when an index exists:
// the executor's path for plans whose cost model chose the scan.
func (t *Table) ScanEq(ctx context.Context, col, val string) ([]Row, error) {
	return t.scanEq(ctx, col, val, 0)
}

// scanEq is the sequential filter for col == val, stopping after n
// matches when n > 0.
func (t *Table) scanEq(ctx context.Context, col, val string, n int) ([]Row, error) {
	ci := t.Col(col)
	var rows []Row
	err := t.Scan(ctx, func(r Rec) bool {
		if string(r.Col(ci)) == val {
			rows = append(rows, r.Row())
		}
		return n <= 0 || len(rows) < n
	})
	return rows, err
}

// ScanRange filters sequentially for lo <= col <= hi even when an index
// exists, mirroring ScanEq for range plans.
func (t *Table) ScanRange(ctx context.Context, col, lo, hi string) ([]Row, error) {
	ci := t.Col(col)
	var rows []Row
	err := t.Scan(ctx, func(r Rec) bool {
		if r.Between(ci, lo, hi) {
			rows = append(rows, r.Row())
		}
		return true
	})
	return rows, err
}

// HeapPages returns the page count of the table's record heap, the
// planner's sequential-scan cost.
func (t *Table) HeapPages() int64 {
	if t.snap != nil {
		return t.snap.heap.Pages()
	}
	return t.heap.Pages()
}

// IndexHeight returns the btree height of col's index, 0 when the
// column is unindexed.
func (t *Table) IndexHeight(col string) int {
	if ix, ok := t.index(col); ok {
		return ix.Height()
	}
	return 0
}

// encodeRow serializes values as length-prefixed strings.
func encodeRow(row Row) []byte {
	n := 2
	for _, v := range row {
		n += 4 + len(v)
	}
	buf := make([]byte, 0, n)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(row)))
	for _, v := range row {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v)))
		buf = append(buf, v...)
	}
	return buf
}

// SortRows orders rows by the given column index. When numeric is true the
// values are compared as floats (Q11/Q20 datatype casting); otherwise as
// strings. NULLs sort last.
func SortRows(rows []Row, col int, numeric, asc bool) {
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i][col], rows[j][col]
		an, bn := IsNull(a), IsNull(b)
		if an || bn {
			return !an && bn // non-null first
		}
		var less bool
		if numeric {
			af, _ := strconv.ParseFloat(a, 64)
			bf, _ := strconv.ParseFloat(b, 64)
			less = af < bf
		} else {
			less = a < b
		}
		if asc {
			return less
		}
		return !less
	})
}

// SortByIDSuffix stably orders rows by the numeric suffix of an id
// column ("O25" -> 25), which equals document order for generated ids.
func SortByIDSuffix(rows []Row, col int) {
	sort.SliceStable(rows, func(i, j int) bool {
		return idSuffix(rows[i][col]) < idSuffix(rows[j][col])
	})
}

func idSuffix(id string) int {
	i := 0
	for i < len(id) && (id[i] < '0' || id[i] > '9') {
		i++
	}
	n, _ := strconv.Atoi(id[i:])
	return n
}
