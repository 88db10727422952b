package wire

import (
	"bytes"
	"testing"
	"time"

	"xbench/internal/core"
)

// TestAppendFrameBatchRoundTrip: several frames encoded into one buffer
// must read back one at a time, byte-identical to per-frame writes.
func TestAppendFrameBatchRoundTrip(t *testing.T) {
	frames := []Frame{
		{Kind: byte(OpPing), ID: 1},
		{Kind: byte(OpQuery), ID: 2, Payload: []byte("payload two")},
		{Kind: byte(StatusOK), ID: 3, Payload: bytes.Repeat([]byte("x"), 4096)},
	}
	var batch []byte
	var err error
	for _, f := range frames {
		if batch, err = AppendFrame(batch, f); err != nil {
			t.Fatal(err)
		}
	}
	// The batch must be exactly the concatenation of individual writes.
	var individual bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&individual, f); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(batch, individual.Bytes()) {
		t.Fatal("batched encoding differs from per-frame writes")
	}
	r := bytes.NewReader(batch)
	for i, want := range frames {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.ID != want.ID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	if _, err := ReadFrame(r); err == nil {
		t.Fatal("trailing garbage after batch")
	}
}

// TestAppendFrameTooLarge: an oversized payload must fail without
// corrupting the destination buffer.
func TestAppendFrameTooLarge(t *testing.T) {
	dst := []byte("prefix")
	out, err := AppendFrame(dst, Frame{Payload: make([]byte, MaxPayload+1)})
	if err == nil {
		t.Fatal("oversized frame encoded")
	}
	if string(out) != "prefix" {
		t.Fatal("failed append mutated dst")
	}
}

// TestAppendEncodersMatchEncode: the append-style payload encoders must
// produce exactly the bytes of their allocating counterparts, including
// when appending after existing content.
func TestAppendEncodersMatchEncode(t *testing.T) {
	qr := QueryRequest{
		Query:   7,
		Params:  core.Params{"b": "2", "a": "1"},
		Timeout: 250 * time.Millisecond,
	}
	if got := AppendQueryRequest([]byte("pfx"), qr); !bytes.Equal(got[3:], EncodeQueryRequest(qr)) {
		t.Fatal("AppendQueryRequest diverges from EncodeQueryRequest")
	}
	ur := UpdateRequest{
		Name:    "doc-17",
		Data:    []byte("<item/>"),
		Timeout: time.Second,
		Key:     IdemKey{Client: 42, Seq: 9},
	}
	if got := AppendUpdateRequest([]byte("pfx"), ur); !bytes.Equal(got[3:], EncodeUpdateRequest(ur)) {
		t.Fatal("AppendUpdateRequest diverges from EncodeUpdateRequest")
	}
	res := core.Result{Items: []string{"x", "y"}, OrderGuaranteed: true, PageIO: 12}
	if got := AppendResult([]byte("pfx"), res); !bytes.Equal(got[3:], EncodeResult(res)) {
		t.Fatal("AppendResult diverges from EncodeResult")
	}
}

// TestBufPoolReuse: a buffer cycled through the pool must come back
// zero-length and be safe to grow.
func TestBufPoolReuse(t *testing.T) {
	b := GetBuf()
	*b = append(*b, []byte("scratch")...)
	PutBuf(b)
	b2 := GetBuf()
	if len(*b2) != 0 {
		t.Fatalf("pooled buffer not reset: len=%d", len(*b2))
	}
	PutBuf(b2)
	PutBuf(nil) // must not panic
	// Oversized buffers are dropped, not pooled.
	big := GetBuf()
	*big = make([]byte, 0, MaxKeptBuf+1)
	PutBuf(big)
}
