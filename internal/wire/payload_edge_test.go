package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"xbench/internal/core"
	"xbench/internal/updatelog"
)

// TestFrameCapRejectedBeforeAllocation: a header declaring a payload over
// MaxPayload fails ErrTooLarge without the reader attempting to read (or
// allocate) the declared 64 MiB + 1.
func TestFrameCapRejectedBeforeAllocation(t *testing.T) {
	hdr, err := AppendFrame(nil, Frame{Kind: byte(OpQuery), ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(hdr[12:16], MaxPayload+1)
	if _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized declared payload: %v, want ErrTooLarge", err)
	}
	// The write side enforces the same cap symmetrically.
	if _, err := AppendFrame(nil, Frame{Payload: make([]byte, MaxPayload+1)}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized write: %v, want ErrTooLarge", err)
	}
}

// TestDecodeResultRefusesMalformedTail: MixedContentLost is the last
// field of a result payload, so any byte after it is refused, as
// DecodePlanNode refuses trailing bytes.
func TestDecodeResultRefusesMalformedTail(t *testing.T) {
	base := AppendResult(nil, core.Result{Items: []string{"<a/>"}})
	if _, err := DecodeResult(base); err != nil {
		t.Fatalf("untailed result: %v", err)
	}
	for _, tail := range [][]byte{{0}, {4}, {4, 10}, {0x80, 0x01}} {
		payload := append(append([]byte(nil), base...), tail...)
		if r, err := DecodeResult(payload); err == nil {
			t.Errorf("tail %x: decoded %+v, want an error", tail, r)
		}
	}
}

// TestDecodersRefuseTrailingBytes: every payload is exactly its
// encoding, so each decoder refuses a valid payload with one byte
// appended, typed ErrTrailing. An OpUpdate payload ends in a journal
// record, which updatelog.DecodeOne refuses the same way
// (TestUpdateRequestKeyRoundTrip).
func TestDecodersRefuseTrailingBytes(t *testing.T) {
	for _, c := range []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"QueryRequest", AppendQueryRequest(nil, QueryRequest{Query: core.Q1, Params: core.Params{"X": "O1"}, Timeout: time.Second}),
			func(b []byte) error { _, err := DecodeQueryRequest(b); return err }},
		{"Result", AppendResult(nil, core.Result{Items: []string{"<a/>"}}),
			func(b []byte) error { _, err := DecodeResult(b); return err }},
		{"ClassSize", EncodeClassSize(core.TCMD, core.Normal),
			func(b []byte) error { _, _, err := DecodeClassSize(b); return err }},
		{"Int64", EncodeInt64(-42),
			func(b []byte) error { _, err := DecodeInt64(b); return err }},
		{"PlanNode", AppendPlanNode(nil, &core.PlanNode{Op: "scan", Children: []*core.PlanNode{{Op: "probe"}}}),
			func(b []byte) error { _, err := DecodePlanNode(b); return err }},
		{"JournalPullRequest", EncodeJournalPullRequest(JournalPullRequest{Since: 99, Prev: 5}),
			func(b []byte) error { _, err := DecodeJournalPullRequest(b); return err }},
	} {
		if err := c.decode(c.payload); err != nil {
			t.Errorf("%s: the payload itself: %v", c.name, err)
		}
		if err := c.decode(append(c.payload[:len(c.payload):len(c.payload)], 0)); !errors.Is(err, ErrTrailing) {
			t.Errorf("%s with a byte appended: %v, want ErrTrailing", c.name, err)
		}
	}
}

// updateRequest is the OpUpdate payload of r with timeout.
func updateRequest(timeout time.Duration, r updatelog.Record) []byte {
	return updatelog.AppendRecord(AppendUpdate(nil, timeout), r)
}

// decodeUpdateRequest reads an OpUpdate payload as the server does: the
// timeout, then exactly one intact record.
func decodeUpdateRequest(b []byte) (time.Duration, updatelog.Record, error) {
	timeout, rec, err := DecodeUpdate(b)
	if err != nil {
		return 0, updatelog.Record{}, err
	}
	r, err := updatelog.DecodeOne(rec)
	return timeout, r, err
}

// TestUpdateRequestKeyRoundTrip pins the key's place in an update
// request: a valid key rides along in the record and round-trips; the
// zero key decodes as the zero key, which the server refuses
// (server.TestMalformedUpdatesAreRefused); a payload whose record is cut
// before its key, or has a byte after it, is refused.
func TestUpdateRequestKeyRoundTrip(t *testing.T) {
	keyed := updatelog.Record{
		Kind:   updatelog.KindReplace,
		Name:   "order-update-7.xml",
		Data:   []byte("<order/>"),
		Client: 0xfeedface,
		Seq:    41,
	}
	timeout, got, err := decodeUpdateRequest(updateRequest(250*time.Millisecond, keyed))
	if err != nil || timeout != 250*time.Millisecond || !reflect.DeepEqual(keyed, got) {
		t.Fatalf("keyed roundtrip: %v %+v, %v", timeout, got, err)
	}

	unkeyed := updatelog.Record{Kind: updatelog.KindInsert, Name: "a.xml"}
	if _, got, err := decodeUpdateRequest(updateRequest(time.Second, unkeyed)); err != nil || got.Client != 0 {
		t.Fatalf("zero key: %+v, %v; want the zero key, for the server to refuse", got, err)
	}
	full := updateRequest(time.Second, keyed)
	head := len(AppendUpdate(nil, time.Second))
	if _, _, err := decodeUpdateRequest(full[:head+5]); !errors.Is(err, updatelog.ErrRecord) {
		t.Fatalf("record cut before its key: %v, want updatelog.ErrRecord", err)
	}
	if _, _, err := decodeUpdateRequest(append(full, 0)); !errors.Is(err, updatelog.ErrRecord) {
		t.Fatalf("a byte after the record: %v, want updatelog.ErrRecord", err)
	}
}

// TestUpdateRequestTruncatedKeyTail: every cut through an update request
// fails typed — through the timeout ErrTruncated, through the record
// (its key included) updatelog.ErrRecord — never panics and never
// silently drops half a key.
func TestUpdateRequestTruncatedKeyTail(t *testing.T) {
	full := updateRequest(time.Hour, updatelog.Record{
		Kind: updatelog.KindInsert, Name: "a.xml", Data: []byte("<a/>"),
		Client: 1<<63 + 12345, Seq: 1 << 40,
	})
	head := len(AppendUpdate(nil, time.Hour)) // a multi-byte varint
	for cut := 0; cut < len(full); cut++ {
		want := updatelog.ErrRecord
		if cut < head {
			want = ErrTruncated
		}
		if _, _, err := decodeUpdateRequest(full[:cut]); !errors.Is(err, want) {
			t.Fatalf("cut at %d: %v, want %v", cut, err, want)
		}
	}
}

// TestTruncatedVarintFailsTyped: an unterminated varint (all continuation
// bits) and a varint cut mid-value both decode to ErrTruncated.
func TestTruncatedVarintFailsTyped(t *testing.T) {
	// The timeout runs off the end of the payload: continuation bytes only.
	unterminated := bytes.Repeat([]byte{0x80}, 4)
	if _, _, err := DecodeUpdate(unterminated); !errors.Is(err, ErrTruncated) {
		t.Fatalf("unterminated varint: %v, want ErrTruncated", err)
	}
	// Over-long varint (> 10 bytes of continuation) overflows uint64.
	overflow := bytes.Repeat([]byte{0xFF}, 11)
	if _, _, err := DecodeUpdate(overflow); !errors.Is(err, ErrTruncated) {
		t.Fatalf("overflowing varint: %v, want ErrTruncated", err)
	}
	// A declared length larger than the remaining bytes: a query's first
	// parameter name.
	var e enc
	e.varint(int64(core.Q1))
	e.uvarint(1)
	e.uvarint(1 << 20)
	if _, err := DecodeQueryRequest(e.b); !errors.Is(err, ErrTruncated) {
		t.Fatalf("overlong declared name: %v, want ErrTruncated", err)
	}
}

// FuzzUpdateRequestRoundTrip fuzzes the update request over the full
// field space, the idempotency key included: decode(encode(x)) must be
// x, and its record must re-encode to the bytes it was read from.
func FuzzUpdateRequestRoundTrip(f *testing.F) {
	f.Add("a.xml", []byte("<a/>"), int64(time.Second), uint64(1), uint64(1))
	f.Add("", []byte(nil), int64(0), uint64(0), uint64(99))
	f.Add("order-update-3.xml", []byte{0, 1, 2, 0xFF}, int64(-5), uint64(1<<63), uint64(1<<62))
	f.Fuzz(func(t *testing.T, name string, data []byte, timeout int64, client, seq uint64) {
		in := updatelog.Record{
			Kind:   updatelog.Kind(1 + seq%3),
			Name:   name,
			Data:   data,
			Client: client,
			Seq:    seq,
		}
		enc1 := updateRequest(time.Duration(timeout), in)
		gotTimeout, out, err := decodeUpdateRequest(enc1)
		if err != nil {
			t.Fatalf("decode of valid encoding failed: %v", err)
		}
		if len(in.Data) == 0 {
			in.Data = nil
		}
		if gotTimeout != time.Duration(timeout) || !reflect.DeepEqual(in, out) {
			t.Fatalf("roundtrip: got %v %+v, want %v %+v", gotTimeout, out, time.Duration(timeout), in)
		}
		if enc2 := updateRequest(gotTimeout, out); !bytes.Equal(enc1, enc2) {
			t.Fatalf("re-encode unstable: %x vs %x", enc1, enc2)
		}
	})
}

// FuzzDecodeUpdateRequest feeds arbitrary bytes to the update request's
// decoders: they must return cleanly (typed error or value), never panic
// or over-read, and a record they accept re-encodes to the bytes after
// the timeout.
func FuzzDecodeUpdateRequest(f *testing.F) {
	f.Add([]byte{})
	f.Add(updateRequest(0, updatelog.Record{Kind: updatelog.KindDelete, Name: "a.xml", Client: 3, Seq: 7}))
	f.Add(bytes.Repeat([]byte{0x80}, 16))
	f.Fuzz(func(t *testing.T, b []byte) {
		b = slices.Clip(b)
		_, rec, err := DecodeUpdate(b)
		if err != nil {
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("non-typed decode error: %v", err)
			}
			return
		}
		r, err := updatelog.DecodeOne(rec)
		if err != nil {
			if !errors.Is(err, updatelog.ErrRecord) {
				t.Fatalf("non-typed record error: %v", err)
			}
			return
		}
		if again := updatelog.AppendRecord(nil, r); !bytes.Equal(again, rec) {
			t.Fatalf("record re-encodes to %x, want %x", again, rec)
		}
	})
}
