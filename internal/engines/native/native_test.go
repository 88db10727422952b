package native

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"xbench/internal/btree"
	"xbench/internal/core"
	"xbench/internal/engines/rdbms"
	"xbench/internal/gen"
	"xbench/internal/pager"
	"xbench/internal/queries"
	"xbench/internal/textgen"
	"xbench/internal/workload"
)

// docCount reads the document count a query submitted now would see:
// the published view's, under a pin.
func docCount(t *testing.T, e *Engine) int {
	t.Helper()
	v, release, err := e.View()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	return v.DocumentCount()
}

func loadTiny(t *testing.T, class core.Class) (*Engine, *core.Database) {
	t.Helper()
	cfg := gen.Config{DictEntries: 30, Articles: 5, Items: 20, Orders: 150}
	db, err := cfg.Generate(class, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	e := New(0)
	if _, err := e.Load(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	return e, db
}

func TestLoadCountsDocuments(t *testing.T) {
	e, db := loadTiny(t, core.DCMD)
	if docCount(t, e) != len(db.Docs) {
		t.Fatalf("catalog has %d docs, want %d", docCount(t, e), len(db.Docs))
	}
}

func TestLoadRejectsMalformed(t *testing.T) {
	e := New(0)
	db := &core.Database{Class: core.TCMD, Size: core.Small, Docs: []core.Doc{
		{Name: "bad.xml", Data: []byte("<a><b></a>")},
	}}
	if _, err := e.Load(context.Background(), db); err == nil {
		t.Fatal("malformed document loaded")
	}
}

func TestExecuteSequentialScan(t *testing.T) {
	e, _ := loadTiny(t, core.DCSD)
	// No indexes built: Q1 must still work via sequential scan.
	res, err := e.Execute(context.Background(), core.Q1, core.Params{"X": "I1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || !strings.Contains(res.Items[0], `id="I1"`) {
		t.Fatalf("Q1 = %v", res.Items)
	}
	if !res.OrderGuaranteed {
		t.Fatal("native results are always order-guaranteed")
	}
}

func TestIndexSelectsSubset(t *testing.T) {
	e, db := loadTiny(t, core.DCMD)
	if err := e.BuildIndexes(queries.Indexes(core.DCMD)); err != nil {
		t.Fatal(err)
	}
	e.ColdReset()
	io := e.PageIO()
	res, err := e.Execute(context.Background(), core.Q1, core.Params{"X": "O3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 {
		t.Fatalf("Q1 via index = %v", res.Items)
	}
	indexedIO := e.PageIO() - io

	// Without indexes the same query scans everything.
	e2, _ := loadTiny(t, core.DCMD)
	e2.ColdReset()
	io = e2.PageIO()
	res2, err := e2.Execute(context.Background(), core.Q1, core.Params{"X": "O3"})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Items[0] != res.Items[0] {
		t.Fatal("indexed and scan answers differ")
	}
	if scanIO := e2.PageIO() - io; indexedIO >= scanIO {
		t.Fatalf("index should reduce I/O: %d vs %d", indexedIO, scanIO)
	}

	// Each one-source DC/MD probe opens exactly the document its probe
	// returned, from disk on a cold run and from the memo on a warm one;
	// Q19, which joins the order with its customer, opens the five flat
	// documents beside it. The answers are the relational engines'.
	ctx := context.Background()
	rels := []core.Engine{rdbms.New(rdbms.Xcolumn, 0, 0), rdbms.New(rdbms.Xcollection, 0, 0), rdbms.New(rdbms.SQLServer, 0, 0)}
	for _, r := range rels {
		if _, _, err := workload.LoadAndIndex(ctx, r, db); err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		defer r.Close()
	}
	hit, miss := e.Metrics().Counter("native.memo.hit"), e.Metrics().Counter("native.memo.miss")
	p := core.Params{"X": "O3"}
	for _, c := range []struct {
		q     core.QueryID
		opens int64
	}{{core.Q1, 1}, {core.Q5, 1}, {core.Q8, 1}, {core.Q9, 1}, {core.Q12, 1}, {core.Q19, 6}} {
		e.ColdReset()
		var res core.Result
		for _, warm := range []bool{false, true} {
			hits, misses := hit.Value(), miss.Value()
			var err error
			if res, err = e.Execute(ctx, c.q, p); err != nil || len(res.Items) == 0 {
				t.Fatalf("%s = %v, %v", c.q, res.Items, err)
			}
			got, want := [2]int64{hit.Value() - hits, miss.Value() - misses}, [2]int64{0, c.opens}
			if warm {
				want = [2]int64{c.opens, 0}
			}
			if got != want {
				t.Errorf("%s (warm %v) opened %d memoized and %d stored documents, want %d and %d", c.q, warm, got[0], got[1], want[0], want[1])
			}
		}
		for _, r := range rels {
			got, err := r.Execute(ctx, c.q, p)
			if errors.Is(err, core.ErrNoQuery) {
				continue
			}
			if err == nil {
				err = workload.Check(workload.ModeFor(core.DCMD, c.q, r.Name()), res, got)
			}
			if err != nil {
				t.Errorf("%s %s: %v", r.Name(), c.q, err)
			}
		}
	}
}

func TestDocLookupByName(t *testing.T) {
	e, db := loadTiny(t, core.DCMD)
	res, err := e.Execute(context.Background(), core.Q16, core.Params{"DOC": "order1.xml"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 {
		t.Fatalf("Q16 = %d items", len(res.Items))
	}
	// The returned document must be byte-equivalent to the loaded one
	// modulo the XML declaration.
	var orig string
	for _, d := range db.Docs {
		if d.Name == "order1.xml" {
			orig = string(d.Data)
		}
	}
	if !strings.Contains(orig, res.Items[0][:100]) && !strings.Contains(res.Items[0], `id="O1"`) {
		t.Fatalf("Q16 returned a different document: %.120s", res.Items[0])
	}

	if _, err := e.Execute(context.Background(), core.Q16, core.Params{"DOC": "missing.xml"}); err == nil {
		t.Fatal("missing document lookup succeeded")
	}
}

func TestUndefinedQuery(t *testing.T) {
	e, _ := loadTiny(t, core.DCSD)
	if _, err := e.Execute(context.Background(), core.Q19, nil); err != core.ErrNoQuery {
		t.Fatalf("want ErrNoQuery, got %v", err)
	}
}

func TestBuildIndexIdempotent(t *testing.T) {
	e, _ := loadTiny(t, core.TCSD)
	specs := queries.Indexes(core.TCSD)
	if err := e.BuildIndexes(specs); err != nil {
		t.Fatal(err)
	}
	if err := e.BuildIndexes(specs); err != nil {
		t.Fatal(err)
	}
}

func TestReplaceAndDeleteDocument(t *testing.T) {
	e, _ := loadTiny(t, core.DCMD)
	before := docCount(t, e)

	// Replace order1 with a version whose total is recognizable.
	newDoc := []byte(`<order id="O1"><customer_id>C1</customer_id>
		<order_date>2000-01-01</order_date><sub_total>1</sub_total>
		<tax>0</tax><total>42.42</total><ship_type>AIR</ship_type>
		<ship_date>2000-01-02</ship_date><ship_addr_id>A1</ship_addr_id>
		<order_status>NEW</order_status>
		<cc_xacts><cc_type>VISA</cc_type><cc_number>1</cc_number>
		<cc_name>x</cc_name><cc_expiry>2001-01-01</cc_expiry>
		<cc_auth_id>1</cc_auth_id><total_amount>42.42</total_amount></cc_xacts>
		<order_lines><order_line><item_id>I1</item_id><qty>1</qty>
		<discount>0</discount></order_line></order_lines></order>`)
	if err := e.ReplaceDocument(context.Background(), "order1.xml", newDoc); err != nil {
		t.Fatal(err)
	}
	if docCount(t, e) != before {
		t.Fatalf("replace changed document count: %d -> %d", before, docCount(t, e))
	}
	res, err := e.Execute(context.Background(), core.Q1, core.Params{"X": "O1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || !strings.Contains(res.Items[0], "42.42") {
		t.Fatalf("Q1 after replace = %v", res.Items)
	}

	// Delete it and confirm it is gone.
	if err := e.DeleteDocument(context.Background(), "order1.xml"); err != nil {
		t.Fatal(err)
	}
	if docCount(t, e) != before-1 {
		t.Fatalf("delete did not shrink catalog: %d", docCount(t, e))
	}
	res, err = e.Execute(context.Background(), core.Q1, core.Params{"X": "O1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 0 {
		t.Fatalf("deleted order still queryable: %v", res.Items)
	}
	// The refusals, none of which may change the store.
	for _, tc := range []struct {
		name string
		op   func() error
		want string
	}{
		{"U3 of a name just deleted", func() error {
			return e.DeleteDocument(context.Background(), "order1.xml")
		}, `document "order1.xml" not found`},
		{"U3 of a name never stored", func() error {
			return e.DeleteDocument(context.Background(), "no-such.xml")
		}, `document "no-such.xml" not found`},
		{"U1 of an existing name", func() error {
			return e.InsertDocument(context.Background(), "order2.xml", newDoc)
		}, "insert order2.xml: document already exists"},
		{"U2 of malformed XML", func() error {
			return e.ReplaceDocument(context.Background(), "bad.xml", []byte("<a><b></a>"))
		}, "replace bad.xml"},
	} {
		err := tc.op()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want one containing %q", tc.name, err, tc.want)
		}
		if docCount(t, e) != before-1 {
			t.Errorf("%s: document count moved to %d", tc.name, docCount(t, e))
		}
	}
	// A deleted name is free again.
	if err := e.InsertDocument(context.Background(), "order1.xml", newDoc); err != nil {
		t.Fatalf("U1 of a deleted name: %v", err)
	}
}

func TestReplaceUpsertsNewDocument(t *testing.T) {
	e, _ := loadTiny(t, core.TCMD)
	before := docCount(t, e)
	doc := []byte(`<article id="a999"><prolog><title>Fresh</title>
		<authors><author><name>N</name></author></authors></prolog>
		<body><sec id="s1"><p>x</p></sec></body></article>`)
	if err := e.ReplaceDocument(context.Background(), "article999.xml", doc); err != nil {
		t.Fatal(err)
	}
	if docCount(t, e) != before+1 {
		t.Fatal("upsert did not add a document")
	}
	res, err := e.Execute(context.Background(), core.Q1, core.Params{"X": "a999"})
	if err != nil || len(res.Items) != 1 {
		t.Fatalf("new document not queryable: %v %v", res.Items, err)
	}
}

// TestIndexesRebuildAfterUpdate: the value indexes are kept up to date
// by every update rather than dropped by it. After a delete, a replace
// and an insert, Q1 and Q5 still plan as index probes and execute as
// them (the index is visited, one document is materialized), they answer
// exactly what a scan of the same store answers, and building the
// indexes again changes nothing.
func TestIndexesRebuildAfterUpdate(t *testing.T) {
	ctx := context.Background()
	e, _ := loadTiny(t, core.DCMD)
	if err := e.BuildIndexes(queries.Indexes(core.DCMD)); err != nil {
		t.Fatal(err)
	}
	order := func(id, total string) []byte {
		return []byte(`<order id="` + id + `"><customer_id>C1</customer_id>
		<order_date>2000-01-01</order_date><total>` + total + `</total>
		<order_status>NEW</order_status><cc_xacts><cc_type>VISA</cc_type></cc_xacts>
		<order_lines><order_line><item_id>I7</item_id><qty>1</qty></order_line>
		</order_lines></order>`)
	}
	if err := e.DeleteDocument(ctx, "order2.xml"); err != nil {
		t.Fatal(err)
	}
	if err := e.ReplaceDocument(ctx, "order3.xml", order("O3", "33.33")); err != nil {
		t.Fatal(err)
	}
	if err := e.InsertDocument(ctx, "order-new.xml", order("O9001", "90.01")); err != nil {
		t.Fatal(err)
	}

	type key struct {
		q  core.QueryID
		id string
	}
	indexed := map[key][]string{}
	visits := e.Metrics().Counter("btree.visit")
	for _, q := range []core.QueryID{core.Q1, core.Q5} {
		node, err := e.Explain(ctx, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(node.Format(), "index-probe order/@id") {
			t.Fatalf("%s after updates plans as\n%swant an index probe", q, node.Format())
		}
		for _, id := range []string{"O1", "O2", "O3", "O4", "O9001"} {
			before := visits.Value()
			res, err := e.Execute(ctx, q, core.Params{"X": id})
			if err != nil {
				t.Fatal(err)
			}
			if visits.Value() == before {
				t.Fatalf("%s for %s executed without visiting the index", q, id)
			}
			indexed[key{q, id}] = res.Items
		}
	}
	if got := indexed[key{core.Q1, "O2"}]; len(got) != 0 {
		t.Fatalf("deleted order still answers through the index: %v", got)
	}
	if got := indexed[key{core.Q1, "O3"}]; len(got) != 1 || !strings.Contains(got[0], "33.33") {
		t.Fatalf("replaced order through the index = %v", got)
	}
	if got := indexed[key{core.Q1, "O9001"}]; len(got) != 1 || !strings.Contains(got[0], "90.01") {
		t.Fatalf("inserted order through the index = %v", got)
	}

	// Building again is a no-op; dropping the indexes turns the same
	// queries into scans, which must agree with what the probes said.
	if err := e.BuildIndexes(queries.Indexes(core.DCMD)); err != nil {
		t.Fatal(err)
	}
	for k, want := range indexed {
		res, err := e.Execute(ctx, k.q, core.Params{"X": k.id})
		if err != nil || fmt.Sprint(res.Items) != fmt.Sprint(want) {
			t.Fatalf("%s %s after a second BuildIndexes = %v, %v; want %v", k.q, k.id, res.Items, err, want)
		}
	}
	// No query is running, so the test may reach in: forget the indexes
	// and publish the store again.
	e.s.indexes = map[string]*btree.Tree{}
	if err := e.BuildIndexes(nil); err != nil {
		t.Fatal(err)
	}
	for k, want := range indexed {
		res, err := e.Execute(ctx, k.q, core.Params{"X": k.id})
		if err != nil || fmt.Sprint(res.Items) != fmt.Sprint(want) {
			t.Fatalf("%s %s by scan = %v, %v; the index probe answered %v", k.q, k.id, res.Items, err, want)
		}
	}
}

func TestConcurrentReadOnlyQueries(t *testing.T) {
	// Warm queries (no ColdReset) from many goroutines must be safe: the
	// pager is the only shared mutable state and is mutex-guarded.
	e, _ := loadTiny(t, core.DCMD)
	if err := e.BuildIndexes(queries.Indexes(core.DCMD)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				id := fmt.Sprintf("O%d", 1+(g*8+i)%20)
				res, err := e.Execute(context.Background(), core.Q1, core.Params{"X": id})
				if err != nil {
					errs <- err
					return
				}
				if len(res.Items) != 1 {
					errs <- fmt.Errorf("%s: %d items", id, len(res.Items))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestReplaceWithItselfAnswersAsBefore: on the single-document classes,
// where the one document is the whole store, replacing it with itself
// moves every index entry to the new catalog record, and every query
// answers exactly as before.
func TestReplaceWithItselfAnswersAsBefore(t *testing.T) {
	ctx := context.Background()
	for _, class := range []core.Class{core.DCSD, core.TCSD} {
		cfg := gen.Config{DictEntries: 60, Articles: 5, Items: 40, Orders: 60}
		db, err := cfg.Generate(class, core.Small)
		if err != nil {
			t.Fatal(err)
		}
		e := New(0)
		if _, err := e.Load(ctx, db); err != nil {
			t.Fatal(err)
		}
		if err := e.BuildIndexes(queries.Indexes(class)); err != nil {
			t.Fatal(err)
		}
		params := map[core.Class]core.Params{
			core.DCSD: {"X": "I7", "LO": "1997-01-01", "HI": "2001-12-30",
				"Z": "Canada", "N": "900", "W2": "system", "Y": "Adams", "PHRASE": "of the"},
			core.TCSD: {"W": textgen.Headword(3), "W2": "system", "Y": "x",
				"L": "London", "LO": "1997-01-01", "PHRASE": "of the"},
		}[class]
		answers := func() map[core.QueryID]string {
			out := map[core.QueryID]string{}
			for q := core.Q1; q <= core.Q20; q++ {
				res, err := e.Execute(ctx, q, params)
				out[q] = fmt.Sprint(res.Items, err)
			}
			return out
		}
		before := answers()
		if err := e.ReplaceDocument(ctx, db.Docs[0].Name, db.Docs[0].Data); err != nil {
			t.Fatal(err)
		}
		for q, got := range answers() {
			if got != before[q] {
				t.Fatalf("%s/%s after a replace answers %.200s; before, %.200s", class, q, got, before[q])
			}
		}
	}
}

// TestTwoHitsInOneDocument: the index holds one entry per matching
// value, so a document holding two matches arrives from the probe twice.
// It must be opened, and answer, once — for an equality probe (two hw in
// one entry) and a range probe (two in-range dates in one item).
func TestTwoHitsInOneDocument(t *testing.T) {
	ctx := context.Background()
	// Filler subtrees make the document several heap pages long, so the
	// cost model prefers the probe to a scan.
	pad := strings.Repeat("padding ", 30)
	var entries, items strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&entries, `<entry id="f%d"><hw>filler%d</hw><sense><def>%s</def></sense></entry>`, i, i, pad)
		fmt.Fprintf(&items, `<item id="F%d"><date_of_release>1980-01-01</date_of_release><description>%s</description></item>`, i, pad)
	}
	cases := []struct {
		class  core.Class
		doc    string
		q      core.QueryID
		params core.Params
	}{
		{core.TCSD,
			`<dictionary><entry id="e1"><hw>twin</hw><hw>twin</hw><sense><def>d</def></sense></entry>` +
				entries.String() + `</dictionary>`,
			core.Q1, core.Params{"W": "twin"}},
		{core.DCSD,
			`<catalog><item id="I1"><date_of_release>1999-01-01</date_of_release>` +
				`<date_of_release>1999-06-01</date_of_release><publisher><name>P</name></publisher></item>` +
				items.String() + `</catalog>`,
			core.Q14, core.Params{"LO": "1997-01-01", "HI": "2001-12-30"}},
	}
	for _, c := range cases {
		db := &core.Database{Class: c.class, Size: core.Small,
			Docs: []core.Doc{{Name: "doc.xml", Data: []byte(c.doc)}}}
		e := New(0)
		if _, err := e.Load(ctx, db); err != nil {
			t.Fatal(err)
		}
		if err := e.BuildIndexes(queries.Indexes(c.class)); err != nil {
			t.Fatal(err)
		}
		if node, err := e.Explain(ctx, c.q, c.params); err != nil || !strings.Contains(fmt.Sprint(*node), "index-probe") {
			t.Fatalf("%s/%s: expected an index plan, got %+v (%v)", c.class, c.q, node, err)
		}
		hit, miss := e.Metrics().Counter("native.memo.hit"), e.Metrics().Counter("native.memo.miss")
		hits, misses := hit.Value(), miss.Value()
		res, err := e.Execute(ctx, c.q, c.params)
		if err != nil {
			t.Fatal(err)
		}
		if opened := hit.Value() - hits + miss.Value() - misses; opened != 1 {
			t.Fatalf("%s/%s opened the document %d times, want once", c.class, c.q, opened)
		}
		if len(res.Items) != 1 {
			t.Fatalf("%s/%s returned %d items, want 1", c.class, c.q, len(res.Items))
		}
	}
}

// TestCatalogRecordPinned: a catalog record is a flag byte of 0, a
// record count of 1, the document's RID and its name, byte for byte what
// the store has always written; any other record is reported as corrupt.
func TestCatalogRecordPinned(t *testing.T) {
	en := docEntry{name: "order1.xml", rid: 300}
	want := append([]byte{0x00, 0x01, 0xac, 0x02}, "order1.xml"...)
	if got := encodeCatalogEntry(en); !bytes.Equal(got, want) {
		t.Fatalf("encoded % x, want % x", got, want)
	}
	if got, err := decodeCatalogEntry(want); err != nil || got != en {
		t.Fatalf("decoded %+v, %v; want %+v", got, err, en)
	}
	for _, tc := range []struct {
		name string
		rec  []byte
	}{
		{"empty", nil},
		{"flag byte 1", []byte{0x01, 0x01, 0x05, 'a'}},
		{"count 0", []byte{0x00, 0x00, 0x05, 'a'}},
		{"count 2", []byte{0x00, 0x02, 0x05, 0x06, 'a'}},
		{"truncated rid", []byte{0x00, 0x01}},
		{"rid runs to the end", []byte{0x00, 0x01, 0xac, 0x82}},
	} {
		if en, err := decodeCatalogEntry(tc.rec); err == nil {
			t.Errorf("%s: % x decoded as %+v", tc.name, tc.rec, en)
		}
	}
}

// allocsPerRun is testing.AllocsPerRun with setup called before each run
// of f and left out of the count.
func allocsPerRun(runs int, setup, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	setup()
	f() // warm-up, as AllocsPerRun does
	var before, after runtime.MemStats
	var total uint64
	for i := 0; i < runs; i++ {
		setup()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
	}
	return float64(total / uint64(runs))
}

// warmQ1Allocs is what an indexed DC/MD Q1 allocates on a view that has
// opened its record before: the catalog walk, the probe, the evaluation
// and the answer, and nothing per record. It was 42 while the evaluator
// interpreted the AST, boxing each node and binding variables in a map,
// and 48 while a catalog entry decoded for each opened document built a
// slice of its record RIDs.
const warmQ1Allocs = 6

// coldQ1Allocs is what the same query allocates after a ColdReset, less
// the page-crossing spans it assembles: it opens its one record, order
// O1's, again, and a page it reads from disk allocates nothing. It was 29
// while an index probe also opened the five flat documents, which only a
// query with a second source (Q19) reads; 65 with the interpreter and 71
// with the six RID slices.
const coldQ1Allocs = 13

// TestAllocationPins: an indexed DC/MD point query does not allocate per
// node, and what a join with the flat documents allocates does not move
// when those documents grow. Warm, on one view, a query opens nothing —
// the records it touches are the view's memo's. Cold, after a ColdReset
// left out of the count, it opens each record and allocates a few objects
// per record, a count that holds once the one thing that depends on where
// the records lie is taken out: one buffer per span HeapView.Get
// assembles — Get returns an in-page span of a record (its length prefix,
// its body) where it lies and copies one that crosses a page boundary, so
// the crossing spans among the records opened, worked out from their RIDs
// and lengths, are subtracted. A page the query reads from disk allocates
// nothing: the pool installs the disk's page image itself. Q1 has one
// source and opens order O1's record alone: its two counts are exactly
// warmQ1Allocs and coldQ1Allocs. Q19 joins the order with its customer,
// so it opens the five flat documents too: its two counts are held equal
// across flat documents of two sizes. (Q19's constructor allocates one
// object more under the race detector, so its counts are not pinned.)
func TestAllocationPins(t *testing.T) {
	ctx := context.Background()
	crosses := func(off uint64, n int) int {
		if n > 0 && int(off%pager.PageSize)+n > pager.PageSize {
			return 1
		}
		return 0
	}
	p := core.Params{"X": "O1"}
	type counts struct{ warm, cold float64 }
	measure := func(orders int) (q1, q19 counts, flatBytes int) {
		db, err := gen.Config{Seed: 7, Orders: orders}.Generate(core.DCMD, core.Small)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range db.Docs {
			if !strings.HasPrefix(d.Name, "order") {
				flatBytes += len(d.Data)
			}
		}
		// Keep the catalog the same length: only the flat documents differ.
		kept := db.Docs[:0:0]
		for _, d := range db.Docs {
			if !strings.HasPrefix(d.Name, "order") || len(kept) < 300 {
				kept = append(kept, d)
			}
		}
		db.Docs = kept
		e := New(0)
		defer e.Close()
		if _, err := e.Load(ctx, db); err != nil {
			t.Fatal(err)
		}
		if err := e.BuildIndexes(queries.Indexes(core.DCMD)); err != nil {
			t.Fatal(err)
		}
		// spans counts the page-crossing spans among the records of order
		// O1 and, with flat, of every flat document.
		spans := func(flat bool) (n int) {
			for name, loc := range e.s.names {
				if name != "order1.xml" && (!flat || strings.HasPrefix(name, "order")) {
					continue
				}
				rec, err := e.s.catalog.Live().Get(ctx, loc.cat, nil)
				if err != nil {
					t.Fatal(err)
				}
				en, err := decodeCatalogEntry(rec)
				if err != nil {
					t.Fatal(err)
				}
				data, err := e.s.docs.Live().Get(ctx, en.rid, nil)
				if err != nil {
					t.Fatal(err)
				}
				n += crosses(uint64(en.rid), 4) + crosses(uint64(en.rid)+4, len(data))
			}
			return n
		}
		count := func(q core.QueryID, flat bool) counts {
			run := func() {
				res, err := e.Execute(ctx, q, p)
				if err != nil || len(res.Items) != 1 {
					t.Fatalf("%s = %v, %v", q, res.Items, err)
				}
			}
			warm := testing.AllocsPerRun(20, run)
			return counts{warm, allocsPerRun(20, e.ColdReset, run) - float64(spans(flat))}
		}
		return count(core.Q1, false), count(core.Q19, true), flatBytes
	}
	smallQ1, smallQ19, smallFlat := measure(gen.DefaultOrders)
	largeQ1, largeQ19, largeFlat := measure(4 * gen.DefaultOrders)
	if largeFlat < 2*smallFlat {
		t.Fatalf("flat documents did not grow: %d -> %d bytes", smallFlat, largeFlat)
	}
	if want := (counts{warmQ1Allocs, coldQ1Allocs}); smallQ1 != want || largeQ1 != want {
		t.Errorf("DC/MD Q1 allocates %v (warm, cold) with %d KB of flat documents, %v with %d KB, page-crossing records aside; want %v",
			smallQ1, smallFlat>>10, largeQ1, largeFlat>>10, want)
	}
	if smallQ19 != largeQ19 {
		t.Errorf("DC/MD Q19 allocates %v (warm, cold) with %d KB of flat documents, %v with %d KB, page-crossing records aside",
			smallQ19, smallFlat>>10, largeQ19, largeFlat>>10)
	}
}

// u1Allocs and u2Allocs are what a steady-state U1 and U2 of one order
// allocate on loadIndexed's store, the whole Apply: the parse, the
// bracket, the document's entries leaving and entering the value indexes,
// and the commit's view. They were 20 and 30 while indexing an
// attribute target (order/@id) also took the string value of each order
// element, and 27 and 37 while an insert read back the record it had just
// stored and opened it again to index it, a delete read and decoded the
// document's catalog record, and the heap staged a record bound for a
// dead extent in a fresh buffer.
const (
	u1Allocs = 15
	u2Allocs = 20
)

// TestUpdateIndexesTheRecordItWasHanded: a U1 and a U2 on an indexed
// DC/MD store index the record Apply parsed, not a copy of it opened
// again from the document heap, so each allocates exactly u1Allocs and
// u2Allocs. The U1 runs against a U3 of the same order, left out of the
// count, and the U2 rewrites the order with its own bytes, so every run
// stores the record into the extent the one before tombstoned and the
// counts are those of one update, not of a growing store. Nothing an
// update allocates waits in a sync.Pool, so the counts hold under the
// race detector too.
func TestUpdateIndexesTheRecordItWasHanded(t *testing.T) {
	ctx := context.Background()
	e, db := loadIndexed(t)
	defer e.Close()
	var order core.Doc
	for _, d := range db.Docs {
		if strings.HasPrefix(d.Name, "order") {
			order = d
			break
		}
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	u1 := allocsPerRun(100, func() { must(e.DeleteDocument(ctx, order.Name)) },
		func() { must(e.InsertDocument(ctx, order.Name, order.Data)) })
	u2 := testing.AllocsPerRun(100, func() { must(e.ReplaceDocument(ctx, order.Name, order.Data)) })
	if u1 != u1Allocs || u2 != u2Allocs {
		t.Errorf("a U1 allocates %v times and a U2 %v, want %d and %d", u1, u2, u1Allocs, u2Allocs)
	}
	if got := docCount(t, e); got != len(db.Docs) {
		t.Fatalf("%d documents after the updates, want %d", got, len(db.Docs))
	}
}
