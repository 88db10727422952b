package native

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"xbench/internal/core"
	"xbench/internal/gen"
	"xbench/internal/pager"
	"xbench/internal/plan"
	"xbench/internal/queries"
	"xbench/internal/workload"
)

// pinView pins the published view for the rest of the test.
func pinView(t *testing.T, e *Engine) *view {
	t.Helper()
	v, release, err := e.View()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(release)
	return v
}

// published is the view a query submitted now would read, for looking
// at its memo: the pin is released at once, so ColdReset does not wait
// on it.
func published(t *testing.T, e *Engine) *view {
	t.Helper()
	v, release, err := e.View()
	if err != nil {
		t.Fatal(err)
	}
	release()
	return v
}

// memoLen is the number of records v's memo holds.
func memoLen(v *view) int {
	v.memo.mu.RLock()
	defer v.memo.mu.RUnlock()
	return len(v.memo.recs)
}

// items is Execute's answer or a test failure.
func items(t *testing.T, e *Engine, q core.QueryID, p core.Params) []string {
	t.Helper()
	res, err := e.Execute(context.Background(), q, p)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res.Items
}

// pagesOf runs q on e and returns the page I/O it took.
func pagesOf(t *testing.T, e *Engine, q core.QueryID, p core.Params) int64 {
	t.Helper()
	io := e.PageIO()
	items(t, e, q, p)
	return e.PageIO() - io
}

// execOn runs q against v itself, planned over its statistics: how a
// reader still pinned at v answers after later commits.
func execOn(t *testing.T, v *view, q core.QueryID, p core.Params) []string {
	t.Helper()
	ph, err := plan.Plan(queries.Lookup(v.Class(), q), v.Stats())
	if err == nil {
		var res core.Result
		if res, err = v.Exec(context.Background(), ph, p); err == nil {
			return res.Items
		}
	}
	t.Fatalf("%s: %v", q, err)
	return nil
}

// docRID is the document-heap RID of the named document as the writer
// has it now.
func docRID(t *testing.T, e *Engine, name string) pager.RID {
	t.Helper()
	rec, err := e.s.catalog.Live().Get(context.Background(), e.s.names[name].cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	en, err := decodeCatalogEntry(rec)
	if err != nil {
		t.Fatal(err)
	}
	return en.rid
}

// loadIndexed is loadTiny's DC/MD database loaded and indexed.
func loadIndexed(t *testing.T) (*Engine, *core.Database) {
	t.Helper()
	e, db := loadTiny(t, core.DCMD)
	if err := e.BuildIndexes(queries.Indexes(core.DCMD)); err != nil {
		t.Fatal(err)
	}
	return e, db
}

// TestOpenedRecordsLiveWithTheView: a published view validates each
// record it opens once and hands it to every later query on it; a commit
// that tombstones a record's RID drops it, so the next view opens what a
// U2 stored there, while a reader pinned before keeps answering from its
// own pages; ColdReset empties the memo, whose charge (its records'
// footprints) stays within the pool's bytes, and the writer's reads never
// fill it.
func TestOpenedRecordsLiveWithTheView(t *testing.T) {
	params := workload.Params(core.DCMD)
	pointMix := []core.QueryID{core.Q1, core.Q5, core.Q8, core.Q16}

	t.Run("a second query opens nothing", func(t *testing.T) {
		e, _ := loadIndexed(t)
		defer e.Close()
		v := published(t, e)
		var first [][]string
		for _, q := range pointMix {
			first = append(first, items(t, e, q, params))
		}
		if memoLen(v) == 0 {
			t.Fatal("the point mix left nothing in the view's memo")
		}
		// No query runs: take the document heap away from the view. A
		// query that reached it would fail on a RID beyond its extent.
		docs := v.docs
		v.docs = pager.HeapView{}
		defer func() { v.docs = docs }()
		for i, q := range pointMix {
			if got := items(t, e, q, params); fmt.Sprint(got) != fmt.Sprint(first[i]) {
				t.Fatalf("%s from the memo = %v, first answered %v", q, got, first[i])
			}
		}
	})

	t.Run("a U2 at the same RID", func(t *testing.T) {
		e, db := loadIndexed(t)
		defer e.Close()
		var orig []byte
		for _, d := range db.Docs {
			if d.Name == "order1.xml" {
				orig = d.Data
			}
		}
		// The same order with a total of the same length: the new record
		// is as long as the old and reuses its space.
		i := bytes.Index(orig, []byte("<total>")) + len("<total>")
		n := bytes.Index(orig[i:], []byte("</total>"))
		oldTotal, newTotal := string(orig[i:i+n]), strings.Repeat("7", n)
		if n <= 0 || oldTotal == newTotal {
			t.Fatalf("premise broken: order1's total is %q", oldTotal)
		}
		changed := append(append(append([]byte{}, orig[:i]...), newTotal...), orig[i+n:]...)

		p := core.Params{"X": "O1"}
		old := pinView(t, e)
		before := items(t, e, core.Q1, p)
		rid := docRID(t, e, "order1.xml")
		if old.memo.get(rid, old.epoch) == nil {
			t.Fatal("Q1 did not memoize order1's record")
		}
		if err := e.ReplaceDocument(context.Background(), "order1.xml", changed); err != nil {
			t.Fatal(err)
		}
		if docRID(t, e, "order1.xml") != rid {
			t.Fatal("premise broken: the replacement did not reuse the deleted record's RID")
		}
		if got := items(t, e, core.Q1, p); len(got) != 1 || !strings.Contains(got[0], "<total>"+newTotal+"<") {
			t.Fatalf("the next view answers %v, want the total %s", got, newTotal)
		}
		if got := execOn(t, old, core.Q1, p); fmt.Sprint(got) != fmt.Sprint(before) || !strings.Contains(got[0], "<total>"+oldTotal+"<") {
			t.Fatalf("the reader pinned before the U2 answers %v, want %v", got, before)
		}
	})

	t.Run("ColdReset", func(t *testing.T) {
		warm, _ := loadIndexed(t)
		defer warm.Close()
		fresh, _ := loadIndexed(t)
		defer fresh.Close()
		for _, q := range []core.QueryID{core.Q1, core.Q2} {
			items(t, warm, q, params)
			if v := published(t, warm); memoLen(v) == 0 {
				t.Fatalf("%s memoized nothing", q)
			}
			warm.ColdReset()
			if v := published(t, warm); memoLen(v) != 0 || v.memo.bytes != 0 {
				t.Fatalf("ColdReset left %d records, %d bytes", memoLen(v), v.memo.bytes)
			}
			got := pagesOf(t, warm, q, params)
			fresh.ColdReset()
			if want := pagesOf(t, fresh, q, params); got != want {
				t.Fatalf("cold %s after ColdReset reads %d pages, a freshly loaded engine %d", q, got, want)
			}
		}
	})

	t.Run("bounded by the pool", func(t *testing.T) {
		db, err := gen.Config{Seed: 7}.Generate(core.DCMD, core.Normal)
		if err != nil {
			t.Fatal(err)
		}
		const poolPages = 64
		e := New(poolPages)
		defer e.Close()
		if _, err := e.Load(context.Background(), db); err != nil {
			t.Fatal(err)
		}
		v := published(t, e)
		if v.docs.Pages() <= poolPages {
			t.Fatalf("premise broken: %d document pages fit the pool", v.docs.Pages())
		}
		if res := items(t, e, core.Q2, params); len(res) == 0 {
			t.Fatal("Q2 answered nothing")
		}
		if memoLen(v) == 0 || v.memo.bytes > poolPages*pager.PageSize {
			t.Fatalf("a scan of %d document pages left %d records, %d bytes in the memo; want some, at most %d bytes",
				v.docs.Pages(), memoLen(v), v.memo.bytes, poolPages*pager.PageSize)
		}
		// What the memo charges is what its records hold.
		var held int64
		v.memo.mu.RLock()
		for _, rec := range v.memo.recs {
			held += rec.Footprint()
		}
		v.memo.mu.RUnlock()
		if held != v.memo.bytes {
			t.Fatalf("the memo charges %d bytes for records whose footprints sum to %d", v.memo.bytes, held)
		}
	})

	t.Run("the writer memoizes nothing", func(t *testing.T) {
		e, _ := loadTiny(t, core.DCMD)
		defer e.Close()
		views := []*view{pinView(t, e)}
		name, doc := workload.UpdateDoc(core.DCMD, 1, 0)
		for _, step := range []struct {
			name string
			do   func() error
		}{
			{"BuildIndexes", func() error { return e.BuildIndexes(queries.Indexes(core.DCMD)) }},
			{"U1", func() error { return e.InsertDocument(context.Background(), name, doc) }},
			{"U2", func() error { return e.ReplaceDocument(context.Background(), name, doc) }},
			{"U3", func() error { return e.DeleteDocument(context.Background(), name) }},
		} {
			if err := step.do(); err != nil {
				t.Fatalf("%s: %v", step.name, err)
			}
			views = append(views, pinView(t, e))
			for i, v := range views {
				if n := memoLen(v); n != 0 {
					t.Fatalf("after %s view %d holds %d records", step.name, i, n)
				}
			}
		}
		if e.s.live().memo != nil {
			t.Fatal("the writer's live view has a memo")
		}
	})

	t.Run("concurrent readers agree with a serial one", func(t *testing.T) {
		serial, _ := loadIndexed(t)
		defer serial.Close()
		shared, _ := loadIndexed(t)
		defer shared.Close()
		qs := workload.QueryIDs(core.DCMD)
		want := map[core.QueryID]string{}
		for _, q := range qs {
			want[q] = fmt.Sprint(items(t, serial, q, params))
		}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 3*len(qs); i++ {
					q := qs[(g+i)%len(qs)]
					res, err := shared.Execute(context.Background(), q, params)
					if err == nil && fmt.Sprint(res.Items) != want[q] {
						err = fmt.Errorf("%s: a concurrent reader answered %d items unlike the serial one", q, len(res.Items))
					}
					if err != nil {
						errs <- err
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
	})
}

// TestWarmReadHonorsCancellation: a memo hit fetches no page, so it
// checks ctx itself — a cancelled query on a warm view stops at its next
// document as it does on a cold one.
func TestWarmReadHonorsCancellation(t *testing.T) {
	e, _ := loadIndexed(t)
	defer e.Close()
	p := core.Params{"X": "O1"}
	items(t, e, core.Q1, p)
	v := pinView(t, e)
	rid := docRID(t, e, "order1.xml")
	if v.memo.get(rid, v.epoch) == nil {
		t.Fatal("Q1 did not memoize order1's record")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := v.openRecord(ctx, rid, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("a memo hit under a cancelled context returned %v; want context.Canceled", err)
	}
	if _, err := e.Execute(ctx, core.Q1, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute on a warm view under a cancelled context = %v; want context.Canceled", err)
	}
}

// countingCtx counts the calls of Err, and answers context.Canceled from
// the limit-th on (never for a zero limit).
type countingCtx struct {
	context.Context
	calls, limit int
}

func (c *countingCtx) Err() error {
	if c.calls++; c.limit > 0 && c.calls >= c.limit {
		return context.Canceled
	}
	return nil
}

// TestScanStopsWhenCancelled: the evaluator asks ctx once per document
// its //order walk enters, after the catalog walk has opened them all (a
// memo hit each). A scan cancelled once it has entered the first document
// returns context.Canceled and enters no other.
func TestScanStopsWhenCancelled(t *testing.T) {
	e, _ := loadIndexed(t)
	defer e.Close()
	p := core.Params{"I": "I1"}
	items(t, e, core.Q2, p) // every record is the memo's from here on
	hits := published(t, e).memo.hit
	whole := &countingCtx{Context: context.Background()}
	if _, err := e.Execute(whole, core.Q2, p); err != nil {
		t.Fatal(err)
	}
	docs := docCount(t, e)
	walk := whole.calls - docs // the asks before the evaluation
	before := hits.Value()
	cut := &countingCtx{Context: context.Background(), limit: walk + 2}
	if _, err := e.Execute(cut, core.Q2, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("Q2 cancelled in its second document = %v; want context.Canceled", err)
	}
	if opened := hits.Value() - before; opened != int64(docs) {
		t.Fatalf("Q2 was cancelled after opening %d of %d documents: not in the evaluation", opened, docs)
	}
	if cut.calls != walk+2 {
		t.Fatalf("Q2 cancelled in its second document asked ctx %d times, want %d (%d uncancelled): it went on walking",
			cut.calls, walk+2, whole.calls)
	}
}
