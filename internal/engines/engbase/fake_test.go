package engbase_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"xbench/internal/core"
	"xbench/internal/engines/engbase"
	"xbench/internal/pager"
	"xbench/internal/plan"
	"xbench/internal/xmldom"
)

// cell is the smallest Store there is: one page holding the number of
// documents stored. A view remembers the count it was frozen with, and
// its Exec reads the page as of the view's epoch and compares — so a reader
// handed a view of one epoch under a pin of another (whose page version
// GC is free to reclaim) fails instead of answering. Like a real store's,
// its hooks only mutate — Base syncs — but they can be made to fail or to
// park, which no real store can be.
type cell struct {
	p     *pager.Pager
	fid   pager.FileID
	names map[string]bool

	// What Freeze and ApplyDelete return, when set; ApplyDelete fails
	// after rewriting the page, as a real half-applied update would.
	freezeErr, deleteErr error
	// inInsert, when set, runs inside ApplyInsert after the page is
	// rewritten, with the hook's ctx; its error is the hook's.
	inInsert func(ctx context.Context) error
	// ApplyInsert, when parked is set, signals on it after rewriting the
	// page and then waits for resume: a writer stopped mid-apply with the
	// latch held.
	parked, resume chan struct{}
}

type cellView struct {
	p     *pager.Pager
	fid   pager.FileID
	epoch uint64
	n     uint64
}

func newCell(t *testing.T) (*engbase.Base[*cellView], *cell) {
	t.Helper()
	p := pager.New(16)
	c := &cell{p: p, fid: p.Create("cell")}
	b := engbase.New[*cellView](p, c)
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
	return c.p.Write(c.fid, 0, buf)
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
func (c *cell) Freeze(epoch uint64) (*cellView, error) {
	if c.freezeErr != nil {
		return nil, c.freezeErr
	}
	return &cellView{p: c.p, fid: c.fid, epoch: epoch, n: uint64(len(c.names))}, nil
}
func (v *cellView) Class() core.Class { return core.DCMD }
func (v *cellView) Stats() plan.StatValues {
	return plan.StatValues{DataPages: 1, DataRows: int64(v.n)}
}
func (v *cellView) Exec(_ context.Context, _ *plan.Physical, _ core.Params) (core.Result, error) {
	pg, err := v.p.ReadAt(v.fid, 0, v.epoch)
	if err != nil {
		return core.Result{}, err
	}
	if got := binary.LittleEndian.Uint64(pg); got != v.n {
		return core.Result{}, fmt.Errorf("view of epoch %d was frozen at %d documents, its page says %d", v.epoch, v.n, got)
	}
	return core.Result{Items: []string{fmt.Sprint(v.n)}}, nil
}
func (v *cellView) Explain(*plan.Physical) (*core.PlanNode, error) {
	return &core.PlanNode{Op: "scan", Target: "cell"}, nil
}
func (c *cell) BuildIndexes([]core.IndexSpec) error { return nil }
func (c *cell) Exists(name string) bool             { return c.names[name] }
func (c *cell) ApplyInsert(ctx context.Context, name string, _ []byte, _ *xmldom.Record) error {
	c.names[name] = true
	if err := c.write(); err != nil {
		return err
	}
	if c.inInsert != nil {
		if err := c.inInsert(ctx); err != nil {
			return err
		}
	}
	if c.parked != nil {
		c.parked <- struct{}{}
		<-c.resume
	}
	return nil
}
func (c *cell) ApplyDelete(_ context.Context, name string) error {
	delete(c.names, name)
	if err := c.write(); err != nil {
		return err
	}
	return c.deleteErr
}

func mustLoad(t *testing.T, b *engbase.Base[*cellView], n int) {
	t.Helper()
	if _, err := b.Load(context.Background(), docs(n)); err != nil {
		t.Fatal(err)
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
	if n := b.Pager().PinnedSnapshots(); n != 0 {
		t.Fatalf("%d snapshots left pinned", n)
	}
}
