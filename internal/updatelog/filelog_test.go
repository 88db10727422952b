package updatelog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFileLogAppendReopen: records (including idempotency keys) survive
// a close/reopen cycle bit-exact, in commit order.
func TestFileLogAppendReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	l, recs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal has %d records", len(recs))
	}
	want := []Record{
		{Kind: KindInsert, Name: "a.xml", Data: []byte("<a/>"), Client: 7, Seq: 1},
		{Kind: KindReplace, Name: "a.xml", Data: []byte("<a rev='1'/>"), Client: 7, Seq: 2},
		{Kind: KindDelete, Name: "a.xml", Client: 9, Seq: 1},
		{Kind: KindInsert, Name: "unkeyed.xml", Data: []byte("<u/>")},
	}
	for _, r := range want {
		if err := l.Append(AppendRecord(nil, r)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Records() != len(want) {
		t.Fatalf("Records() = %d, want %d", l.Records(), len(want))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("reopen: got %+v, want %+v", got, want)
	}
}

// TestFileLogTornTailTruncated: a record torn mid-append (a real crash's
// signature) ends the committed prefix, is physically truncated on open,
// and appending afterwards produces a clean journal again.
func TestFileLogTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	l, _, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(AppendRecord(nil, Record{Kind: KindInsert, Name: "keep.xml", Data: []byte("<k/>"), Client: 1, Seq: 1})); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Simulate a crash mid-append: half a record lands after the commit.
	torn := AppendRecord(nil, Record{Kind: KindInsert, Name: "torn.xml", Data: []byte("<t/>"), Client: 1, Seq: 2})
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, recs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Name != "keep.xml" {
		t.Fatalf("committed prefix = %+v, want just keep.xml", recs)
	}
	// The torn bytes must be gone: a fresh append then reopen yields
	// exactly two intact records.
	if err := l2.Append(AppendRecord(nil, Record{Kind: KindDelete, Name: "keep.xml", Client: 1, Seq: 3})); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	_, recs, err = OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Kind != KindDelete || recs[1].Seq != 3 {
		t.Fatalf("after truncate+append: %+v", recs)
	}
}

// TestFileLogCorruptMiddleEndsPrefix: corruption before the tail ends the
// committed prefix there — recovery never skips over a bad record to
// trust what follows.
func TestFileLogCorruptMiddleEndsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	l, _, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := l.Append(AppendRecord(nil, Record{Kind: KindInsert, Name: "d.xml", Data: []byte("<d/>"), Client: 2, Seq: seq})); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	one := len(raw) / 3
	raw[one+10] ^= 0xFF // flip a byte inside the second record
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, recs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("prefix after mid-corruption = %+v, want only seq 1", recs)
	}
}

// TestFileLogReadServesCommittedWindows: Read returns windows of the
// committed journal straight from the file — recovered records and ones
// appended this run alike — as whole records under the byte cap (a
// longer record by itself), never shows a record whose sync has not
// returned, even while that sync runs, and refuses a position the
// journal does not hold.
func TestFileLogReadServesCommittedWindows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	rec := func(i int) Record {
		return Record{Kind: KindInsert, Name: fmt.Sprintf("d%d.xml", i), Data: []byte(strings.Repeat("x", 10*i+1)), Client: 3, Seq: uint64(i + 1)}
	}
	size := func(i int) int { return len(AppendRecord(nil, rec(i))) }
	l, _, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(AppendRecord(nil, rec(i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if l, _, err = OpenFile(path); err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// A fourth whose Append is parked in its sync: Read, which never
	// waits behind a sync, shows the recovered three and not it.
	recovered := size(0) + size(1) + size(2)
	syncing, parked := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(parked) })
	defer release() // a failed check must not leave Close waiting on the parked Append
	l.syncHook = func(f *os.File) error {
		close(syncing)
		<-parked
		return f.Sync()
	}
	appended := make(chan error, 1)
	go func() { appended <- l.Append(AppendRecord(nil, rec(3))) }()
	<-syncing
	if got, err := l.Read(0, 0, 1<<20); err != nil || len(got) != recovered {
		t.Fatalf("Read during the sync = %d bytes, %v; want the %d of the 3 recovered records", len(got), err, recovered)
	}
	if n := l.Records(); n != 3 {
		t.Fatalf("Records() during the sync = %d, want the 3 recovered", n)
	}
	release()
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	l.syncHook = nil
	for i := 4; i < 6; i++ {
		if err := l.Append(AppendRecord(nil, rec(i))); err != nil {
			t.Fatal(err)
		}
	}

	// Walk the journal in windows under each cap, naming each position by
	// the record before it: every window is whole records (a record
	// longer than the cap alone), and the walk yields the six records.
	for _, limit := range []int{0, size(0), size(1) + size(2), size(5) - 1, 1 << 20} {
		var since, prev uint64
		var got []Record
		for {
			w, err := l.Read(since, prev, limit)
			if err != nil {
				t.Fatalf("cap %d: Read(%d) = %v", limit, since, err)
			}
			if len(w) == 0 {
				break
			}
			recs, n := Decode(w)
			if n != len(w) || len(recs) == 0 {
				t.Fatalf("cap %d: window at %d holds %d bytes of whole records of %d", limit, since, n, len(w))
			}
			if len(w) > limit && len(recs) != 1 {
				t.Fatalf("cap %d: window at %d is %d bytes in %d records", limit, since, len(w), len(recs))
			}
			got = append(got, recs...)
			since, prev = since+uint64(n), recs[len(recs)-1].Sum()
		}
		want := []Record{rec(0), rec(1), rec(2), rec(3), rec(4), rec(5)}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cap %d: walked %+v, want %+v", limit, got, want)
		}
	}

	end := uint64(recovered + size(3) + size(4) + size(5))
	for _, p := range []struct {
		name        string
		since, prev uint64
	}{
		{"past the committed end", end + 1, rec(5).Sum()},
		{"after another record", uint64(size(0)), rec(1).Sum()},
		{"inside the first record", 3, 0},
	} {
		if _, err := l.Read(p.since, p.prev, 1<<20); !errors.Is(err, ErrPosition) {
			t.Errorf("Read %s = %v, want ErrPosition", p.name, err)
		}
	}
}

// TestSyncedWakesAWaitingReader: the channel Synced hands out closes once
// the next Append's sync returned, and not while it runs; on a poisoned
// log it closes at once, a read at the durable end says why and a later
// Append is refused; on a closed log it closes at once.
func TestSyncedWakesAWaitingReader(t *testing.T) {
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	l, _, err := OpenFile(filepath.Join(t.TempDir(), "journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	synced := l.Synced()
	syncing, parked := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(parked) })
	defer release() // a failed check must not leave Close waiting on the parked Append
	l.syncHook = func(f *os.File) error {
		close(syncing)
		<-parked
		return f.Sync()
	}
	appended := make(chan error, 1)
	go func() {
		appended <- l.Append(AppendRecord(nil, Record{Kind: KindInsert, Name: "a.xml", Data: []byte("<a/>")}))
	}()
	<-syncing
	if closed(synced) {
		t.Fatal("Synced woke on a record whose sync has not returned")
	}
	release()
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	if !closed(synced) {
		t.Fatal("Synced did not wake on the sync")
	}

	synced = l.Synced()
	l.syncHook = func(*os.File) error { return errors.New("disk gone") }
	if err := l.Append(AppendRecord(nil, Record{Kind: KindDelete, Name: "a.xml"})); err == nil {
		t.Fatal("append with a failing sync succeeded")
	}
	if !closed(synced) || !closed(l.Synced()) {
		t.Fatal("Synced did not wake on the poisoned log")
	}
	l.syncHook = nil
	if err := l.Append(AppendRecord(nil, Record{Kind: KindInsert, Name: "b.xml", Data: []byte("<b/>")})); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("Append after a failed sync = %v, want the poisoning named", err)
	}
	end := uint64(len(AppendRecord(nil, Record{Kind: KindInsert, Name: "a.xml", Data: []byte("<a/>")})))
	if _, err := l.Read(end, 0, 1<<20); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("Read at the durable end of a poisoned log = %v, want the poisoning named", err)
	}

	l.broken = nil
	synced = l.Synced()
	l.Close()
	if !closed(synced) || !closed(l.Synced()) {
		t.Fatal("Synced did not wake on Close")
	}
}

// TestConcurrentWritersSyncEachRecord: 32 writers append at once behind
// a slow sync. Every acknowledged record is on disk exactly once after a
// reopen, each was committed by a sync of its own (Syncs() ==
// Records()), and Close adds no sync.
func TestConcurrentWritersSyncEachRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	l, _, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	l.syncHook = func(f *os.File) error {
		time.Sleep(2 * time.Millisecond) // long enough for the others to queue behind it
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
	if syncs := l.Syncs(); syncs != int64(l.Records()) {
		t.Fatalf("%d records committed by %d syncs; each record must have its own", l.Records(), syncs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if syncs := l.Syncs(); syncs != writers {
		t.Fatalf("Close issued %d syncs", syncs-writers)
	}

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

// TestGroupCommitEnqueueOrderIsJournalOrder: Enqueue, kept for the
// benchmark's journal probe, appends: records land in the file in
// Enqueue order, and WaitDurable on their handles, in any order, fails
// none.
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
