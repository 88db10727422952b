package wire

import (
	"bytes"
	"testing"
	"time"

	"xbench/internal/core"
)

// TestAppendFrameBatchRoundTrip: several frames encoded into one buffer
// must read back one at a time, byte-identical to per-frame encodings.
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
	// The batch must be exactly the concatenation of individual frames.
	var individual []byte
	for _, f := range frames {
		individual = append(individual, mustFrame(t, f)...)
	}
	if !bytes.Equal(batch, individual) {
		t.Fatal("batched encoding differs from per-frame encodings")
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

// TestAppendEncodersMatchEncode: a payload encoder appending after
// existing content keeps it and appends exactly the bytes it writes into
// an empty buffer.
func TestAppendEncodersMatchEncode(t *testing.T) {
	qr := QueryRequest{
		Query:   7,
		Params:  core.Params{"b": "2", "a": "1"},
		Timeout: 250 * time.Millisecond,
	}
	if got := AppendQueryRequest([]byte("pfx"), qr); string(got[:3]) != "pfx" || !bytes.Equal(got[3:], AppendQueryRequest(nil, qr)) {
		t.Fatal("AppendQueryRequest after a prefix diverges from AppendQueryRequest(nil, ...)")
	}
	if got := AppendUpdate([]byte("pfx"), time.Second); string(got[:3]) != "pfx" || !bytes.Equal(got[3:], AppendUpdate(nil, time.Second)) {
		t.Fatal("AppendUpdate after a prefix diverges from AppendUpdate(nil, ...)")
	}
	res := core.Result{Items: []string{"x", "y"}, OrderGuaranteed: true, PageIO: 12}
	if got := AppendResult([]byte("pfx"), res); string(got[:3]) != "pfx" || !bytes.Equal(got[3:], AppendResult(nil, res)) {
		t.Fatal("AppendResult after a prefix diverges from AppendResult(nil, ...)")
	}
}

// TestAppendFrameFuncEncodesInPlace: a payload appended in place after
// existing frames makes exactly the frame AppendFrame makes of the same
// payload encoded on its own.
func TestAppendFrameFuncEncodesInPlace(t *testing.T) {
	qr := QueryRequest{Query: 5, Params: core.Params{"X": "O1"}, Timeout: time.Second}
	payload := AppendQueryRequest(nil, qr)
	prefix := mustFrame(t, Frame{Kind: byte(OpPing), ID: 1})
	got, err := AppendFrameFunc(append([]byte(nil), prefix...), byte(OpQuery), 2, func(b []byte) []byte {
		return AppendQueryRequest(b, qr)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := append(prefix, mustFrame(t, Frame{Kind: byte(OpQuery), ID: 2, Payload: payload})...); !bytes.Equal(got, want) {
		t.Fatal("a payload encoded in place differs from AppendFrame's frame")
	}
}
