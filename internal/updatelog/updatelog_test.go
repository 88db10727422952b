package updatelog

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// pageSize is a disk page: a zeroed one must not decode, and a record
// may span several.
const pageSize = 8192

func TestRecordRoundtrip(t *testing.T) {
	recs := []Record{
		{Kind: KindInsert, Name: "a.xml", Data: []byte("<a/>")},
		{Kind: KindReplace, Name: "b.xml", Data: bytes.Repeat([]byte("x"), 3*pageSize)},
		{Kind: KindDelete, Name: "c.xml"},
	}
	for _, want := range recs {
		got, n, ok := decodeRecord(encodeRecord(want))
		if !ok {
			t.Fatalf("%s %q failed to decode", want.Kind, want.Name)
		}
		if n != len(encodeRecord(want)) {
			t.Fatalf("%s %q consumed %d of %d bytes", want.Kind, want.Name, n, len(encodeRecord(want)))
		}
		if got.Kind != want.Kind || got.Name != want.Name || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("roundtrip mismatch: got %+v", got)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	good := encodeRecord(Record{Kind: KindInsert, Name: "a.xml", Data: []byte("<a/>")})
	cases := map[string][]byte{
		"empty":        nil,
		"zeroed page":  make([]byte, pageSize),
		"bad magic":    append([]byte{0, 0, 0, 0}, good[4:]...),
		"bad kind":     append(append([]byte{}, good[:4]...), append([]byte{9}, good[5:]...)...),
		"truncated":    good[:len(good)-3],
		"bit flip":     append(append([]byte{}, good[:len(good)-1]...), good[len(good)-1]^1),
		"huge dataLen": func() []byte { b := append([]byte{}, good...); b[9], b[10] = 0xFF, 0xFF; return b }(),
	}
	for name, buf := range cases {
		if _, _, ok := decodeRecord(buf); ok {
			t.Errorf("%s decoded as a valid record", name)
		}
	}
}

// TestApplyRejectsUnknownKind: a record of a kind outside U1-U3 is an
// error that names the kind, never a record silently applied as nothing.
func TestApplyRejectsUnknownKind(t *testing.T) {
	err := Apply(context.Background(), nil, []Record{{Kind: 9, Name: "x.xml"}})
	if err == nil || !strings.Contains(err.Error(), "Kind(9)") {
		t.Fatalf("Apply of kind 9 = %v, want an error naming the kind", err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindInsert: "insert", KindReplace: "replace", KindDelete: "delete"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Errorf("unknown kind string %q", Kind(9).String())
	}
}
