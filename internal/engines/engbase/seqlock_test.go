package engbase

import (
	"context"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xbench/internal/core"
	"xbench/internal/pager"
	"xbench/internal/xmldom"
)

// cell is the smallest Store there is: one page holding the number of
// documents stored. A view remembers the count it was frozen with, and
// Run reads the page as of the view's epoch and compares — so a reader
// handed a view of one epoch under a pin of another (whose page version
// GC is free to reclaim) fails instead of answering.
type cell struct {
	p     *pager.Pager
	fid   pager.FileID
	names map[string]bool
}

type cellView struct {
	epoch uint64 // pager.LiveEpoch for the live store
	n     uint64
}

func newCell(t *testing.T) (*Base[*cellView], *cell) {
	t.Helper()
	p := NewPager(16)
	c := &cell{p: p, fid: p.Create("cell")}
	b := New[*cellView](p, c)
	t.Cleanup(func() { b.Close() })
	return b, c
}

func docs(n int) *core.Database {
	db := &core.Database{Class: core.DCMD, Size: core.Small}
	for i := 0; i < n; i++ {
		db.Docs = append(db.Docs, core.Doc{Name: fmt.Sprintf("d%d.xml", i), Data: []byte("<d/>")})
	}
	return db
}

func (c *cell) write() error {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, uint64(len(c.names)))
	if err := c.p.Write(c.fid, 0, buf); err != nil {
		return err
	}
	return c.p.SyncAll()
}

func (c *cell) Name() string                         { return "cell" }
func (c *cell) Supports(core.Class, core.Size) error { return nil }
func (c *cell) Reset() error {
	c.names = map[string]bool{}
	return c.p.Truncate(c.fid)
}
func (c *cell) LoadDocs(_ context.Context, db *core.Database) (core.LoadStats, error) {
	if _, err := c.p.Append(c.fid); err != nil {
		return core.LoadStats{}, err
	}
	for _, d := range db.Docs {
		c.names[d.Name] = true
	}
	return core.LoadStats{Documents: len(db.Docs)}, c.write()
}
func (c *cell) Live() *cellView { return &cellView{epoch: pager.LiveEpoch, n: uint64(len(c.names))} }
func (c *cell) Freeze(epoch uint64) (*cellView, error) {
	return &cellView{epoch: epoch, n: uint64(len(c.names))}, nil
}
func (c *cell) Run(_ context.Context, v *cellView, _ core.QueryID, _ core.Params) (core.Result, error) {
	pg, err := c.p.ReadAt(c.fid, 0, v.epoch)
	if err != nil {
		return core.Result{}, err
	}
	if got := binary.LittleEndian.Uint64(pg); got != v.n {
		return core.Result{}, fmt.Errorf("view of epoch %d was frozen at %d documents, its page says %d", v.epoch, v.n, got)
	}
	from := "snapshot"
	if v.epoch == pager.LiveEpoch {
		from = "live"
	}
	return core.Result{Items: []string{from, fmt.Sprint(v.n)}}, nil
}
func (c *cell) Explain(core.QueryID) (*core.PlanNode, error) { return &core.PlanNode{Op: "cell"}, nil }
func (c *cell) BuildIndexes([]core.IndexSpec) error          { return nil }
func (c *cell) Validate(*xmldom.Node) error                  { return nil }
func (c *cell) Exists(name string) bool                      { return c.names[name] }
func (c *cell) ApplyInsert(_ context.Context, name string, _ []byte, _ *xmldom.Node) error {
	c.names[name] = true
	return c.write()
}
func (c *cell) ApplyDelete(_ context.Context, name string, _ bool) error {
	delete(c.names, name)
	return c.write()
}

func mustLoad(t *testing.T, b *Base[*cellView], n int) {
	t.Helper()
	if _, err := b.Load(context.Background(), docs(n)); err != nil {
		t.Fatal(err)
	}
}

// TestPinRetriesUntilPublish: a reader that pins an epoch the writer has
// committed but not yet published releases and retries, and answers from
// the new view once publish lands — it neither returns the stale view nor
// falls back while the budget lasts.
func TestPinRetriesUntilPublish(t *testing.T) {
	b, _ := newCell(t)
	mustLoad(t, b, 3)
	b.pinRetries = 1 << 40 // this test is about the retry, not the budget

	type answer struct {
		res core.Result
		err error
	}
	done := make(chan answer, 1)
	func() {
		b.mu.Lock() // the window is inside the writer's critical section
		defer b.mu.Unlock()
		epoch := b.p.AdvanceEpoch()
		pins := b.Metrics().Counter("pager.snap.pin")
		start := pins.Value()
		go func() {
			res, err := b.Execute(context.Background(), core.Q1, nil)
			done <- answer{res, err}
		}()
		for pins.Value() < start+3 {
			select {
			case a := <-done:
				t.Fatalf("Execute answered %v, %v while the published epoch trailed the committed one", a.res.Items, a.err)
			case <-time.After(100 * time.Microsecond):
			}
		}
		if err := b.publish(epoch); err != nil {
			t.Fatal(err)
		}
	}()

	a := <-done
	if a.err != nil || a.res.Items[0] != "snapshot" {
		t.Fatalf("Execute after publish = %v, %v; want a snapshot answer", a.res.Items, a.err)
	}
	if n := b.p.PinnedSnapshots(); n != 0 {
		t.Fatalf("%d snapshots left pinned by the retries", n)
	}
}

// TestNothingPublished: with no view published a reader gets the
// not-loaded error through the latch and leaves nothing pinned.
func TestNothingPublished(t *testing.T) {
	b, _ := newCell(t)
	_, err := b.Execute(context.Background(), core.Q1, nil)
	if err == nil || !strings.Contains(err.Error(), "cell: Execute before Load") {
		t.Fatalf("Execute on an empty engine: %v", err)
	}
	if n := b.p.PinnedSnapshots(); n != 0 {
		t.Fatalf("%d snapshots left pinned", n)
	}
}

// TestRetryBudgetExhaustedFallsBack: when the mismatch outlasts the
// retry budget the reader takes the latch and answers from the live
// store.
func TestRetryBudgetExhaustedFallsBack(t *testing.T) {
	b, _ := newCell(t)
	mustLoad(t, b, 3)
	b.pinRetries = 4
	b.p.AdvanceEpoch() // committed, never published: every pin mismatches

	pins := b.Metrics().Counter("pager.snap.pin")
	start := pins.Value()
	res, err := b.Execute(context.Background(), core.Q1, nil)
	if err != nil || res.Items[0] != "live" || res.Items[1] != "3" {
		t.Fatalf("Execute past the retry budget = %v, %v; want the live store's answer", res.Items, err)
	}
	if got := pins.Value() - start; got != 4 {
		t.Fatalf("pinned %d times, want the whole budget of 4", got)
	}
	if n := b.p.PinnedSnapshots(); n != 0 {
		t.Fatalf("%d snapshots left pinned", n)
	}
}

// TestReadersNeverSeeAnotherEpochsView: readers hammer Execute while a
// writer commits U1/U3 pairs. Every answer must come from a view whose
// page, read at the view's epoch, agrees with the view — which only holds
// if the view a reader runs against is the one published for the epoch
// it pinned.
func TestReadersNeverSeeAnotherEpochsView(t *testing.T) {
	b, _ := newCell(t)
	mustLoad(t, b, 3)
	ctx := context.Background()
	rounds := 300
	if testing.Short() {
		rounds = 100
	}

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := b.Execute(ctx, core.Q1, nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		if err := b.InsertDocument(ctx, "x.xml", []byte("<d/>")); err != nil {
			t.Fatal(err)
		}
		if err := b.DeleteDocument(ctx, "x.xml"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if n := b.p.PinnedSnapshots(); n != 0 {
		t.Fatalf("%d snapshots left pinned", n)
	}
}
