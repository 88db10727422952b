package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"time"

	"xbench/internal/core"
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

// TestDecodeResultRefusesMalformedTail: PageIO is the last field of a
// result payload, so any byte after it is refused, as DecodePlanNode
// refuses trailing bytes.
func TestDecodeResultRefusesMalformedTail(t *testing.T) {
	base := AppendResult(nil, core.Result{Items: []string{"<a/>"}, PageIO: 7})
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
// appended, typed ErrTrailing.
func TestDecodersRefuseTrailingBytes(t *testing.T) {
	for _, c := range []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"QueryRequest", AppendQueryRequest(nil, QueryRequest{Query: core.Q1, Params: core.Params{"X": "O1"}, Timeout: time.Second}),
			func(b []byte) error { _, err := DecodeQueryRequest(b); return err }},
		{"Result", AppendResult(nil, core.Result{Items: []string{"<a/>"}, PageIO: 7}),
			func(b []byte) error { _, err := DecodeResult(b); return err }},
		{"UpdateRequest", AppendUpdateRequest(nil, UpdateRequest{Name: "a.xml", Data: []byte("<a/>"), Key: IdemKey{Client: 3, Seq: 1}}),
			func(b []byte) error { _, err := DecodeUpdateRequest(b); return err }},
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

// TestUpdateRequestKeyRoundTrip pins the key encoding: a valid key rides
// along and round-trips; a payload without a key, or with the zero key,
// is refused.
func TestUpdateRequestKeyRoundTrip(t *testing.T) {
	keyed := UpdateRequest{
		Name:    "order-update-7.xml",
		Data:    []byte("<order/>"),
		Timeout: 250 * time.Millisecond,
		Key:     IdemKey{Client: 0xfeedface, Seq: 41},
	}
	got, err := DecodeUpdateRequest(AppendUpdateRequest(nil, keyed))
	if err != nil || !reflect.DeepEqual(keyed, got) {
		t.Fatalf("keyed roundtrip: %+v, %v", got, err)
	}

	if _, err := DecodeUpdateRequest(AppendUpdateRequest(nil, UpdateRequest{Name: "a.xml", Timeout: time.Second})); !errors.Is(err, errNoKey) {
		t.Fatalf("zero key: %v, want errNoKey", err)
	}
	var e enc // the payload as it was before keys: no tail at all
	e.string("a.xml")
	e.bytes(nil)
	e.duration(time.Second)
	if _, err := DecodeUpdateRequest(e.b); !errors.Is(err, ErrTruncated) {
		t.Fatalf("missing key: %v, want ErrTruncated", err)
	}
}

// TestUpdateRequestTruncatedKeyTail: every cut through the key tail fails
// typed, never panics and never silently drops half a key.
func TestUpdateRequestTruncatedKeyTail(t *testing.T) {
	full := AppendUpdateRequest(nil, UpdateRequest{
		Name: "a.xml", Data: []byte("<a/>"),
		Key: IdemKey{Client: 1<<63 + 12345, Seq: 1 << 40}, // multi-byte varints
	})
	var e enc
	e.string("a.xml")
	e.bytes([]byte("<a/>"))
	e.duration(0)
	bare := len(e.b)
	for cut := bare + 1; cut < len(full); cut++ {
		if _, err := DecodeUpdateRequest(full[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: %v, want ErrTruncated", cut, err)
		}
	}
}

// TestTruncatedVarintFailsTyped: an unterminated varint (all continuation
// bits) and a varint cut mid-value both decode to ErrTruncated.
func TestTruncatedVarintFailsTyped(t *testing.T) {
	// Name length runs off the end of the payload: continuation bytes only.
	unterminated := bytes.Repeat([]byte{0x80}, 4)
	if _, err := DecodeUpdateRequest(unterminated); !errors.Is(err, ErrTruncated) {
		t.Fatalf("unterminated varint: %v, want ErrTruncated", err)
	}
	// Over-long varint (> 10 bytes of continuation) overflows uint64.
	overflow := bytes.Repeat([]byte{0xFF}, 11)
	if _, err := DecodeUpdateRequest(overflow); !errors.Is(err, ErrTruncated) {
		t.Fatalf("overflowing varint: %v, want ErrTruncated", err)
	}
	// A declared length larger than the remaining bytes.
	var e enc
	e.uvarint(1 << 20)
	if _, err := DecodeUpdateRequest(e.b); !errors.Is(err, ErrTruncated) {
		t.Fatalf("overlong declared name: %v, want ErrTruncated", err)
	}
}

// FuzzUpdateRequestRoundTrip fuzzes the update codec over the full field
// space, including the idempotency-key tail: encode(decode(encode(x)))
// must be stable and lossless.
func FuzzUpdateRequestRoundTrip(f *testing.F) {
	f.Add("a.xml", []byte("<a/>"), int64(time.Second), uint64(1), uint64(1))
	f.Add("", []byte(nil), int64(0), uint64(0), uint64(99))
	f.Add("order-update-3.xml", []byte{0, 1, 2, 0xFF}, int64(-5), uint64(1<<63), uint64(1<<62))
	f.Fuzz(func(t *testing.T, name string, data []byte, timeout int64, client, seq uint64) {
		in := UpdateRequest{
			Name:    name,
			Data:    data,
			Timeout: time.Duration(timeout),
			Key:     IdemKey{Client: client, Seq: seq},
		}
		enc1 := AppendUpdateRequest(nil, in)
		out, err := DecodeUpdateRequest(enc1)
		if !in.Key.Valid() { // a zero-client key is no key: refused
			if !errors.Is(err, errNoKey) {
				t.Fatalf("unkeyed update decoded: %+v, %v", out, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("decode of valid encoding failed: %v", err)
		}
		want := in
		if len(out.Data) == 0 {
			out.Data = nil
		}
		if len(want.Data) == 0 {
			want.Data = nil
		}
		if !reflect.DeepEqual(want, out) {
			t.Fatalf("roundtrip: got %+v, want %+v", out, want)
		}
		if enc2 := AppendUpdateRequest(nil, out); !bytes.Equal(enc1, enc2) {
			t.Fatalf("re-encode unstable: %x vs %x", enc1, enc2)
		}
	})
}

// FuzzDecodeUpdateRequest feeds arbitrary bytes to the decoder: it must
// return cleanly (typed error or value), never panic or over-read.
func FuzzDecodeUpdateRequest(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendUpdateRequest(nil, UpdateRequest{Name: "a.xml", Key: IdemKey{Client: 3, Seq: 7}}))
	f.Add(bytes.Repeat([]byte{0x80}, 16))
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := DecodeUpdateRequest(b)
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, errNoKey) && !errors.Is(err, ErrTrailing) {
				t.Fatalf("non-typed decode error: %v", err)
			}
			return
		}
		// Whatever decoded must re-encode without error.
		_ = AppendUpdateRequest(nil, req)
	})
}
