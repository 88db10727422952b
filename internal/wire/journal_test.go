package wire

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"xbench/internal/updatelog"
)

func TestJournalPullRequestRoundTrip(t *testing.T) {
	for _, in := range []JournalPullRequest{
		{},
		{Since: 42, Prev: 7},
		{Since: 1<<40 + 3, Prev: 1<<64 - 1},
	} {
		out, err := DecodeJournalPullRequest(EncodeJournalPullRequest(in))
		if err != nil {
			t.Fatal(err)
		}
		if out != in {
			t.Fatalf("got %+v, want %+v", out, in)
		}
	}
}

// shipWindow journals recs in a fresh file log and returns the OpJournal
// response a primary holding that journal sends for a pull from offset
// 0: an OK frame carrying the committed window.
func shipWindow(t *testing.T, recs []updatelog.Record) []byte {
	t.Helper()
	l, _, err := updatelog.OpenFile(filepath.Join(t.TempDir(), "journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, r := range recs {
		if err := l.Append(updatelog.AppendRecord(nil, r)); err != nil {
			t.Fatal(err)
		}
	}
	window, err := l.Read(0, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return mustFrame(t, Frame{Kind: byte(StatusOK), ID: 7, Payload: window})
}

// readWindow reads one OpJournal response and decodes its window the way
// a replica does.
func readWindow(t *testing.T, b []byte) ([]updatelog.Record, int, int) {
	t.Helper()
	f, err := ReadFrame(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	recs, n := updatelog.Decode(f.Payload)
	return recs, n, len(f.Payload)
}

// TestJournalPullResponseRoundTrip: the journal's bytes for an insert, a
// replace and a delete cross the wire as one response and decode to
// exactly those records; a caught-up primary's empty window decodes to
// none.
func TestJournalPullResponseRoundTrip(t *testing.T) {
	in := []updatelog.Record{
		{Kind: updatelog.KindInsert, Name: "order-update-1.xml", Data: []byte("<order id=\"OU1\"/>"), Client: 3, Seq: 1},
		{Kind: updatelog.KindReplace, Name: "order-update-1.xml", Data: []byte("<order id=\"OU1\" v=\"2\"/>"), Client: 3, Seq: 2},
		{Kind: updatelog.KindDelete, Name: "order-update-1.xml", Client: 3, Seq: 3},
	}
	out, n, size := readWindow(t, shipWindow(t, in))
	if n != size || !reflect.DeepEqual(out, in) {
		t.Fatalf("got %+v in %d of %d bytes, want %+v", out, n, size, in)
	}

	// Empty window: caught up.
	if out, n, size := readWindow(t, shipWindow(t, nil)); len(out) != 0 || n != 0 || size != 0 {
		t.Fatalf("empty window: %+v in %d of %d bytes", out, n, size)
	}
}

// TestJournalPullResponseTruncated: a response cut anywhere fails to
// read, so a dropped connection never hands a replica part of a window.
func TestJournalPullResponseTruncated(t *testing.T) {
	full := shipWindow(t, []updatelog.Record{{Kind: updatelog.KindInsert, Name: "a.xml", Data: []byte("<a/>"), Client: 1, Seq: 1}})
	for n := 0; n < len(full); n++ {
		if _, err := ReadFrame(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("truncation at %d/%d read without error", n, len(full))
		}
	}
}

// TestJournalPullResponseRejectsUnknownKind: a shipped record must be a
// U1-U3. The primary ships whole records as its file holds them; on the
// replica, a record of any other kind ends the decoded prefix, so the
// window decodes short (which the replica refuses) rather than with a
// record it would apply as nothing.
func TestJournalPullResponseRejectsUnknownKind(t *testing.T) {
	insert := updatelog.Record{Kind: updatelog.KindInsert, Name: "a.xml", Data: []byte("<a/>"), Client: 1, Seq: 1}
	for _, kind := range []updatelog.Kind{0, 4} {
		bad := updatelog.Record{Kind: kind, Name: "b.xml", Data: []byte("<b/>"), Client: 1, Seq: 2}
		out, n, size := readWindow(t, shipWindow(t, []updatelog.Record{insert, bad}))
		if len(out) != 1 || !reflect.DeepEqual(out[0], insert) || n >= size {
			t.Errorf("a record of kind %d after an insert: %+v in %d of %d bytes, want the insert alone", kind, out, n, size)
		}
	}
}
