package pager

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentReads: many goroutines read a working set larger than the
// pool (forcing misses, lock upgrades and CLOCK evictions under load)
// while verifying page contents. Run with -race.
func TestConcurrentReads(t *testing.T) {
	p := New(8)
	fid := p.Create("data")
	const pages = 32
	for i := 0; i < pages; i++ {
		no, err := p.Append(fid)
		if err != nil {
			t.Fatal(err)
		}
		pg := bytes.Repeat([]byte{byte(i)}, PageSize)
		if err := p.Write(fid, no, 0, pg); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 8
	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				no := uint32((g*131 + i*7) % pages)
				pg, err := p.Read(fid, no)
				if err != nil {
					errc <- err
					return
				}
				if pg[0] != byte(no) || pg[PageSize-1] != byte(no) {
					errc <- fmt.Errorf("page %d holds %d", no, pg[0])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if hits, reads := count(p, "pager.hit"), count(p, "pager.read"); hits == 0 || reads == 0 {
		t.Fatalf("counters did not accumulate under concurrency: %d hits, %d reads", hits, reads)
	}
}

// TestConcurrentColdResetAndStats: ColdReset, IO and NumPages race
// against readers without corrupting answers — the ColdReset/PageIO
// concurrency contract at the pager layer.
func TestConcurrentColdResetAndStats(t *testing.T) {
	p := New(4)
	fid := p.Create("data")
	const pages = 16
	for i := 0; i < pages; i++ {
		no, err := p.Append(fid)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(fid, no, 0, bytes.Repeat([]byte{byte(i)}, PageSize)); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var maint sync.WaitGroup
	maint.Add(1)
	go func() {
		defer maint.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				p.ColdReset()
			case 1:
				_ = p.IO()
			case 2:
				if n := p.NumPages(fid); n != pages {
					panic(fmt.Sprintf("NumPages = %d", n))
				}
			}
		}
	}()

	errc := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				no := uint32((g + i) % pages)
				pg, err := p.Read(fid, no)
				if err != nil {
					errc <- err
					return
				}
				if pg[0] != byte(no) {
					errc <- fmt.Errorf("page %d holds %d after reset race", no, pg[0])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	maint.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentHeapGet: heap reads are goroutine-safe after the load is
// flushed.
func TestConcurrentHeapGet(t *testing.T) {
	ctx := context.Background()
	p := New(8)
	h := NewHeap(p, "heap")
	var rids []RID
	for i := 0; i < 200; i++ {
		rid, err := h.Insert([]byte(fmt.Sprintf("record-%04d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}

	errc := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < len(rids); i++ {
				k := (i + g*13) % len(rids)
				rec, err := h.Live().Get(ctx, rids[k], nil)
				if err != nil {
					errc <- err
					return
				}
				if want := fmt.Sprintf("record-%04d", k); string(rec) != want {
					errc <- fmt.Errorf("rid %d: got %q want %q", rids[k], rec, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}
