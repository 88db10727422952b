package updatelog

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
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
		if err := l.Append(r); err != nil {
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
	if err := l.Append(Record{Kind: KindInsert, Name: "keep.xml", Data: []byte("<k/>"), Client: 1, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Simulate a crash mid-append: half a record lands after the commit.
	torn := encodeRecord(Record{Kind: KindInsert, Name: "torn.xml", Data: []byte("<t/>"), Client: 1, Seq: 2})
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
	if err := l2.Append(Record{Kind: KindDelete, Name: "keep.xml", Client: 1, Seq: 3}); err != nil {
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
		if err := l.Append(Record{Kind: KindInsert, Name: "d.xml", Data: []byte("<d/>"), Client: 2, Seq: seq}); err != nil {
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
// committed records straight from the file — recovered ones and ones
// appended in groups this run alike — clamps a window to the committed
// count, and never shows a record whose sync has not returned — neither
// before its sync starts nor while it runs.
func TestFileLogReadServesCommittedWindows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	rec := func(i int) Record {
		return Record{Kind: KindInsert, Name: fmt.Sprintf("d%d.xml", i), Data: []byte(strings.Repeat("x", i+1)), Client: 3, Seq: uint64(i + 1)}
	}
	l, _, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if l, _, err = OpenFile(path); err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// Three more behind a sync that has not returned yet.
	syncing, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	l.syncHook = func(f *os.File) error {
		once.Do(func() { close(syncing) })
		<-release
		return f.Sync()
	}
	var batch *Batch
	for i := 3; i < 6; i++ {
		if batch, err = l.Enqueue(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got, next, err := l.Read(0, 100); err != nil || next != 3 || len(got) != 3 {
		t.Fatalf("Read before the sync = %d records, next %d, %v; want the 3 recovered ones", len(got), next, err)
	}
	durable := make(chan error, 1)
	go func() { durable <- l.WaitDurable(batch) }()
	<-syncing
	if got, next, err := l.Read(0, 100); err != nil || next != 3 || len(got) != 3 {
		t.Fatalf("Read during the sync = %d records, next %d, %v; want the 3 recovered ones", len(got), next, err)
	}
	close(release)
	if err := <-durable; err != nil {
		t.Fatal(err)
	}

	for _, w := range []struct{ since, max, next uint64 }{
		{0, 100, 6}, {0, 2, 2}, {2, 3, 5}, {5, 1, 6}, {6, 4, 6}, {9, 4, 6},
	} {
		got, next, err := l.Read(w.since, w.max)
		if err != nil || next != w.next {
			t.Fatalf("Read(%d, %d) = next %d, %v; want %d", w.since, w.max, next, err, w.next)
		}
		lo := min(w.since, 6)
		if uint64(len(got)) != next-lo {
			t.Fatalf("Read(%d, %d) returned %d records for [%d, %d)", w.since, w.max, len(got), lo, next)
		}
		for i, r := range got {
			if want := rec(int(lo) + i); !reflect.DeepEqual(r, want) {
				t.Fatalf("Read(%d, %d)[%d] = %+v, want %+v", w.since, w.max, i, r, want)
			}
		}
	}
}
