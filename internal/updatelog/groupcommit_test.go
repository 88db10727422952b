package updatelog

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestGroupCommitSharesSyncs: N concurrent writers must commit with far
// fewer than N fsyncs. The injected sync hook slows each sync down so
// writers pile into the forming batch while the previous batch syncs —
// the natural-batching behavior group commit relies on.
func TestGroupCommitSharesSyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	l, _, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	l.syncHook = func(f *os.File) error {
		time.Sleep(2 * time.Millisecond) // a sync takes long enough to form a group
		return f.Sync()
	}

	const writers = 32
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = l.Append(AppendRecord(nil, Record{
				Kind: KindInsert, Name: fmt.Sprintf("doc-%d.xml", i),
				Data: []byte("<d/>"), Client: 1, Seq: uint64(i + 1),
			}))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	if got := l.Records(); got != writers {
		t.Fatalf("Records() = %d, want %d", got, writers)
	}
	syncs := l.Syncs()
	if syncs >= writers/2 {
		t.Fatalf("%d writers cost %d syncs; group commit should share them (want < %d)", writers, syncs, writers/2)
	}
	if syncs < 1 {
		t.Fatalf("Syncs() = %d; durability requires at least one", syncs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Every acknowledged record must be on disk, exactly once.
	l2, recs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != writers {
		t.Fatalf("reopen found %d records, want %d", len(recs), writers)
	}
	seen := map[uint64]bool{}
	for _, r := range recs {
		if seen[r.Seq] {
			t.Fatalf("seq %d journaled twice", r.Seq)
		}
		seen[r.Seq] = true
	}
}

// TestGroupCommitEnqueueOrderIsJournalOrder: records land in the file in
// Enqueue order even when their WaitDurable calls complete out of order.
func TestGroupCommitEnqueueOrderIsJournalOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	l, _, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	batches := make([]*Batch, n)
	for i := 0; i < n; i++ {
		b, err := l.Enqueue(Record{Kind: KindInsert, Name: fmt.Sprintf("d%d", i), Seq: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		batches[i] = b
	}
	for i := n - 1; i >= 0; i-- { // wait in reverse; order must not care
		if err := l.WaitDurable(batches[i]); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, recs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != n {
		t.Fatalf("reopen found %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d: journal order diverged from enqueue order", i, r.Seq)
		}
	}
}

// TestGroupCommitCloseFlushesFormingBatch: records enqueued but not yet
// waited on still reach disk when Close drains the flusher.
func TestGroupCommitCloseFlushesFormingBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	l, _, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Enqueue(Record{Kind: KindInsert, Name: "pending.xml"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Name != "pending.xml" {
		t.Fatalf("Close lost the forming batch: %d records", len(recs))
	}
}
