package wire

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"xbench/internal/core"
)

func TestFrameRoundTrip(t *testing.T) {
	in := Frame{Kind: byte(OpQuery), ID: 42, Payload: []byte("hello frame")}
	out, err := ReadFrame(bytes.NewReader(mustFrame(t, in)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != in.Kind || out.ID != in.ID || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("roundtrip: got %+v, want %+v", out, in)
	}
	// Empty payload is legal.
	if out, err = ReadFrame(bytes.NewReader(mustFrame(t, Frame{Kind: byte(OpPing), ID: 1}))); err != nil || len(out.Payload) != 0 {
		t.Fatalf("empty payload roundtrip: %+v, %v", out, err)
	}
}

// mustFrame encodes one frame.
func mustFrame(t *testing.T, f Frame) []byte {
	t.Helper()
	b, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFrameChecksumDetectsCorruption(t *testing.T) {
	raw := mustFrame(t, Frame{Kind: byte(OpQuery), ID: 7, Payload: []byte("payload")})
	raw[len(raw)-1] ^= 0xFF // flip a payload byte
	if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted payload read: %v, want ErrChecksum", err)
	}
}

func TestFrameTornMidPayload(t *testing.T) {
	raw := mustFrame(t, Frame{Kind: byte(OpQuery), ID: 7, Payload: []byte("a longer payload")})
	// Cut the stream at every possible torn point: mid-header and
	// mid-payload must fail ErrUnexpectedEOF, a clean boundary io.EOF.
	for cut := 0; cut < len(raw); cut++ {
		_, err := ReadFrame(bytes.NewReader(raw[:cut]))
		if cut == 0 {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("cut at 0: %v, want io.EOF", err)
			}
			continue
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestFrameRejectsGarbage(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader(bytes.Repeat([]byte{0xAB}, 64))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("garbage read: %v, want ErrBadMagic", err)
	}
	raw := mustFrame(t, Frame{Kind: byte(OpPing), ID: 1})
	for _, v := range []byte{99, Version - 1} { // a future version, and the retired one
		raw[2] = v
		if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("version %d read: %v, want ErrBadVersion", v, err)
		}
	}
}

func TestQueryRequestRoundTrip(t *testing.T) {
	in := QueryRequest{
		Query:   core.Q17,
		Params:  core.Params{"W": "word", "X": "I1", "PHRASE": "two words"},
		Timeout: 1500 * time.Millisecond,
	}
	out, err := DecodeQueryRequest(AppendQueryRequest(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("got %+v, want %+v", out, in)
	}
	// Nil params stay nil.
	out, err = DecodeQueryRequest(AppendQueryRequest(nil, QueryRequest{Query: core.Q1}))
	if err != nil || out.Params != nil {
		t.Fatalf("nil params roundtrip: %+v, %v", out, err)
	}
}

func TestResultRoundTrip(t *testing.T) {
	in := core.Result{
		Items:            []string{"<a>1</a>", "", "<b attr=\"x\">два</b>"},
		OrderGuaranteed:  true,
		MixedContentLost: false,
	}
	out, err := DecodeResult(AppendResult(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("got %+v, want %+v", out, in)
	}
}

// TestResultEncodingPinned pins a result's one layout byte for byte:
// the item count, each item length-prefixed, the two flags, and nothing
// after them.
func TestResultEncodingPinned(t *testing.T) {
	res := core.Result{
		Items:            []string{"<a/>", `<b x="1"/>`},
		OrderGuaranteed:  true,
		MixedContentLost: true,
	}
	want, _ := hex.DecodeString("02" + "04" + hex.EncodeToString([]byte("<a/>")) +
		"0a" + hex.EncodeToString([]byte(`<b x="1"/>`)) + "01" + "01")
	got := AppendResult(nil, res)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendResult(nil, ...) = %x, want %x", got, want)
	}
	out, err := DecodeResult(got)
	if err != nil || !reflect.DeepEqual(out, res) {
		t.Fatalf("DecodeResult = %+v, %v; want %+v", out, err, res)
	}
}

func TestUpdateAndCounterRoundTrip(t *testing.T) {
	rec := []byte("an opaque record")
	timeout, gotRec, err := DecodeUpdate(append(AppendUpdate(nil, time.Second), rec...))
	if err != nil || timeout != time.Second || !bytes.Equal(gotRec, rec) {
		t.Fatalf("update roundtrip: %v %q, %v", timeout, gotRec, err)
	}

	c, sz, err := DecodeClassSize(EncodeClassSize(core.TCMD, core.Large))
	if err != nil || c != core.TCMD || sz != core.Large {
		t.Fatalf("class/size roundtrip: %v %v %v", c, sz, err)
	}

	n, err := DecodeInt64(EncodeInt64(-42))
	if err != nil || n != -42 {
		t.Fatalf("int64 roundtrip: %d, %v", n, err)
	}
}

func TestTruncatedPayloadsFailTyped(t *testing.T) {
	full := AppendResult(nil, core.Result{Items: []string{"<a/>", "<b/>"}})
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeResult(full[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: %v, want ErrTruncated", cut, err)
		}
	}
}

// TestErrorMappingRoundTrip pins the contract that remote errors satisfy
// the same errors.Is checks as in-process ones.
func TestErrorMappingRoundTrip(t *testing.T) {
	cases := []struct {
		err      error
		status   Status
		sentinel error
	}{
		{ErrOverloaded, StatusOverloaded, ErrOverloaded},
		{ErrShutdown, StatusShutdown, ErrShutdown},
		{core.ErrUnsupported, StatusUnsupported, core.ErrUnsupported},
		{core.ErrNoQuery, StatusNoQuery, core.ErrNoQuery},
		{core.ErrReadOnly, StatusReadOnly, core.ErrReadOnly},
		{context.Canceled, StatusCanceled, context.Canceled},
		{context.DeadlineExceeded, StatusDeadline, context.DeadlineExceeded},
	}
	for _, c := range cases {
		got := StatusFor(c.err)
		if got != c.status {
			t.Errorf("StatusFor(%v) = %d, want %d", c.err, got, c.status)
		}
		back := DecodeError(c.status, []byte("ctx: "+c.err.Error()))
		if !errors.Is(back, c.sentinel) {
			t.Errorf("DecodeError(%d) = %v, does not wrap %v", c.status, back, c.sentinel)
		}
	}
	// Wrapped errors map the same way.
	wrapped := errors.Join(errors.New("engine: query failed"), core.ErrNoQuery)
	if StatusFor(wrapped) != StatusNoQuery {
		t.Errorf("wrapped ErrNoQuery mapped to %d", StatusFor(wrapped))
	}
	if StatusFor(errors.New("anything else")) != StatusInternal {
		t.Error("unknown error did not map to StatusInternal")
	}
	if DecodeError(StatusOK, nil) != nil {
		t.Error("StatusOK decoded to a non-nil error")
	}
}
