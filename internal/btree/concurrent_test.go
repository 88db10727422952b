package btree

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"xbench/internal/pager"
)

// commit runs mutate as the engines run a mutation: inside a pager
// bracket, with the tree frozen at the bracket's epoch and that view
// published by the commit.
func commit(t *testing.T, p *pager.Pager, tr *Tree, mutate func() error) {
	t.Helper()
	epoch := p.BeginMutation()
	err := mutate()
	if err != nil {
		p.EndMutation(nil)
		t.Fatal(err)
	}
	p.EndMutation(tr.ViewAt(epoch))
}

// pinned runs read as the engines run a query: against the view published
// with the epoch it pinned, released when it is done.
func pinned(p *pager.Pager, read func(v *TreeView) error) error {
	snap := p.PinSnapshot()
	defer snap.Release()
	return read(snap.View().(*TreeView))
}

// TestConcurrentSearchAndRange: a view takes no latch; Search and Range
// from many goroutines, each under its own pin, return complete answers.
// Run with -race.
func TestConcurrentSearchAndRange(t *testing.T) {
	ctx := context.Background()
	p := pager.New(16)
	tr, err := New(p, "idx")
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	commit(t, p, tr, func() error {
		for i := 0; i < n; i++ {
			if err := tr.Insert(fmt.Sprintf("key%05d", i), uint64(i)); err != nil {
				return err
			}
		}
		return nil
	})

	errc := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			err := pinned(p, func(v *TreeView) error {
				for i := 0; i < n; i += 7 {
					k := (i + g*37) % n
					vals, err := v.Search(ctx, fmt.Sprintf("key%05d", k))
					if err != nil {
						return err
					}
					if len(vals) != 1 || vals[0] != uint64(k) {
						return fmt.Errorf("key%05d -> %v", k, vals)
					}
				}
				count := 0
				err := v.Range(ctx, "key00000", "key99999", func(string, uint64) bool {
					count++
					return true
				})
				if err == nil && count != n {
					err = fmt.Errorf("range saw %d keys, want %d", count, n)
				}
				return err
			})
			if err != nil {
				errc <- err
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentInsertWithReaders: a writer committing one insert per
// bracket beside readers that pin per look-up neither races nor loses
// keys, and a reader sees exactly the new keys its epoch committed.
func TestConcurrentInsertWithReaders(t *testing.T) {
	ctx := context.Background()
	p := pager.New(16)
	tr, err := New(p, "idx")
	if err != nil {
		t.Fatal(err)
	}
	const base = 200
	commit(t, p, tr, func() error {
		for i := 0; i < base; i++ {
			if err := tr.Insert(fmt.Sprintf("base%05d", i), uint64(i)); err != nil {
				return err
			}
		}
		return nil
	})
	first := p.SnapshotEpoch() // new key i is committed at first+1+i

	errc := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < base; i++ {
				k := (i + g*31) % base
				err := pinned(p, func(v *TreeView) error {
					vals, err := v.Search(ctx, fmt.Sprintf("base%05d", k))
					if err != nil {
						return err
					}
					if len(vals) != 1 || vals[0] != uint64(k) {
						return fmt.Errorf("base%05d -> %v", k, vals)
					}
					if got, want := v.Len(), base+int(v.epoch-first); got != want {
						return fmt.Errorf("view of epoch %d holds %d entries, want %d", v.epoch, got, want)
					}
					return nil
				})
				if err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		commit(t, p, tr, func() error { return tr.Insert(fmt.Sprintf("new%05d", i), uint64(base+i)) })
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	live := tr.Live()
	for i := 0; i < 200; i++ {
		vals, err := live.Search(ctx, fmt.Sprintf("new%05d", i))
		if err != nil || len(vals) != 1 {
			t.Fatalf("new%05d missing after concurrent insert: %v %v", i, vals, err)
		}
	}
	if tr.Live().Len() != base+200 {
		t.Fatalf("Len = %d, want %d", tr.Live().Len(), base+200)
	}
}
