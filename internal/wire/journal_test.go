package wire

import (
	"context"
	"reflect"
	"testing"

	"xbench/internal/updatelog"
)

func TestJournalPullRequestRoundTrip(t *testing.T) {
	for _, in := range []JournalPullRequest{
		{},
		{Since: 42, Max: 7},
		{Since: 1<<40 + 3, Max: MaxJournalBatch},
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

func TestJournalPullResponseRoundTrip(t *testing.T) {
	in := JournalPullResponse{
		Next: 9,
		Records: []updatelog.Record{
			{Kind: updatelog.KindInsert, Name: "order-update-1.xml", Data: []byte("<order id=\"OU1\"/>"), Client: 3, Seq: 1},
			{Kind: updatelog.KindReplace, Name: "order-update-1.xml", Data: []byte("<order id=\"OU1\" v=\"2\"/>"), Client: 3, Seq: 2},
			{Kind: updatelog.KindDelete, Name: "order-update-1.xml", Client: 3, Seq: 3},
		},
	}
	out, err := DecodeJournalPullResponse(EncodeJournalPullResponse(in))
	if err != nil {
		t.Fatal(err)
	}
	// Delete records carry no data; nil vs empty is not significant.
	if out.Records[2].Data != nil && len(out.Records[2].Data) == 0 {
		out.Records[2].Data = nil
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("got %+v, want %+v", out, in)
	}

	// Empty window: caught up.
	empty, err := DecodeJournalPullResponse(EncodeJournalPullResponse(JournalPullResponse{Next: 5}))
	if err != nil || empty.Next != 5 || len(empty.Records) != 0 {
		t.Fatalf("empty window roundtrip: %+v, %v", empty, err)
	}
}

func TestJournalPullResponseTruncated(t *testing.T) {
	full := EncodeJournalPullResponse(JournalPullResponse{
		Next:    1,
		Records: []updatelog.Record{{Kind: updatelog.KindInsert, Name: "a.xml", Data: []byte("<a/>"), Client: 1, Seq: 1}},
	})
	for n := 0; n < len(full); n++ {
		if _, err := DecodeJournalPullResponse(full[:n]); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", n, len(full))
		}
	}
}

// TestJournalPullResponseRejectsUnknownKind: a shipped record must be a
// U1-U3; any other kind byte is a malformed payload, not a record the
// replica applies as nothing.
func TestJournalPullResponseRejectsUnknownKind(t *testing.T) {
	for _, kind := range []updatelog.Kind{0, 4} {
		b := EncodeJournalPullResponse(JournalPullResponse{
			Next:    1,
			Records: []updatelog.Record{{Kind: kind, Name: "a.xml", Data: []byte("<a/>"), Client: 1, Seq: 1}},
		})
		if _, err := DecodeJournalPullResponse(b); err == nil {
			t.Errorf("a record of kind %d decoded without error", kind)
		}
	}
}

func TestContextIdemKey(t *testing.T) {
	ctx := context.Background()
	if k := ContextIdemKey(ctx); k.Valid() {
		t.Fatalf("bare context carries key %v", k)
	}
	key := IdemKey{Client: 11, Seq: 42}
	if got := ContextIdemKey(WithIdemKey(ctx, key)); got != key {
		t.Fatalf("got %v, want %v", got, key)
	}
	// Invalid keys are not attached.
	if got := ContextIdemKey(WithIdemKey(ctx, IdemKey{Seq: 9})); got.Valid() {
		t.Fatalf("invalid key attached: %v", got)
	}
}
