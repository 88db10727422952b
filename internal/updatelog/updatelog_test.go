package updatelog

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
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
		got, n, ok := decodeRecord(AppendRecord(nil, want))
		if !ok {
			t.Fatalf("%s %q failed to decode", want.Kind, want.Name)
		}
		if n != len(AppendRecord(nil, want)) {
			t.Fatalf("%s %q consumed %d of %d bytes", want.Kind, want.Name, n, len(AppendRecord(nil, want)))
		}
		if got.Kind != want.Kind || got.Name != want.Name || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("roundtrip mismatch: got %+v", got)
		}
	}
}

// TestDecodeOneRefusesAllButOneRecord: DecodeOne reads exactly one
// intact record — the record an update request carries — and refuses,
// typed ErrRecord, every cut through it, a byte after it and a flipped
// checksum bit.
func TestDecodeOneRefusesAllButOneRecord(t *testing.T) {
	want := Record{Kind: KindReplace, Name: "order-update-7.xml", Data: []byte("<order/>"), Client: 1<<63 + 12345, Seq: 1 << 40}
	good := AppendRecord(nil, want)
	if got, err := DecodeOne(good); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeOne = %+v, %v; want %+v", got, err, want)
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 1
	refused := map[string][]byte{"a byte after it": append(bytes.Clone(good), 0), "checksum": flipped}
	for cut := 0; cut < len(good); cut++ {
		refused[fmt.Sprintf("cut at %d", cut)] = good[:cut]
	}
	for name, b := range refused {
		if got, err := DecodeOne(b); !errors.Is(err, ErrRecord) {
			t.Errorf("%s: %+v, %v; want ErrRecord", name, got, err)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	good := AppendRecord(nil, Record{Kind: KindInsert, Name: "a.xml", Data: []byte("<a/>")})
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

// TestDecodeWindow: a shipped window — the journal's bytes for an
// insert, a replace and a delete — decodes to exactly those records;
// every cut through it decodes to the whole records before the cut; a
// record of a kind outside U1-U3 ends the prefix rather than being
// applied as nothing.
func TestDecodeWindow(t *testing.T) {
	want := []Record{
		{Kind: KindInsert, Name: "order-update-1.xml", Data: []byte(`<order id="OU1"/>`), Client: 3, Seq: 1},
		{Kind: KindReplace, Name: "order-update-1.xml", Data: []byte(`<order id="OU1" v="2"/>`), Client: 3, Seq: 2},
		{Kind: KindDelete, Name: "order-update-1.xml", Client: 3, Seq: 3},
	}
	var window []byte
	ends := []int{0}
	for _, r := range want {
		window = append(window, AppendRecord(nil, r)...)
		ends = append(ends, len(window))
	}
	if got, n := Decode(window); n != len(window) || !reflect.DeepEqual(got, want) {
		t.Fatalf("Decode = %+v in %d of %d bytes, want %+v", got, n, len(window), want)
	}
	for cut := 0; cut < len(window); cut++ {
		whole := 0
		for whole+1 < len(ends) && ends[whole+1] <= cut {
			whole++
		}
		if got, n := Decode(window[:cut]); n != ends[whole] || len(got) != whole {
			t.Fatalf("cut at %d: %d records in %d bytes, want %d in %d", cut, len(got), n, whole, ends[whole])
		}
	}
	for _, kind := range []Kind{0, 4} {
		bad := AppendRecord(nil, Record{Kind: kind, Name: "a.xml", Data: []byte("<a/>"), Client: 1, Seq: 1})
		if got, n := Decode(append(AppendRecord(nil, want[0]), bad...)); n != ends[1] || len(got) != 1 {
			t.Errorf("a record of kind %d after an insert: %d records in %d bytes, want the insert alone", kind, len(got), n)
		}
	}
}

// TestApplyRejectsUnknownKind: a record of a kind outside U1-U3 is an
// error that names the kind, never a record silently applied as nothing.
func TestApplyRejectsUnknownKind(t *testing.T) {
	err := Replay(context.Background(), nil, []Record{{Kind: 9, Name: "x.xml"}})
	if err == nil || !strings.Contains(err.Error(), "Kind(9)") {
		t.Fatalf("Replay of kind 9 = %v, want an error naming the kind", err)
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

// FuzzDecode feeds Decode arbitrary bytes, as a torn journal or a
// damaged shipped window reaches it: it never panics or reads past the
// input (clipped, so a read beyond its length panics too), its prefix
// fits the input, and the records it returns re-encode to exactly that
// prefix. DecodeOne, what a server reads an update request's record
// with, is held to it on the same input.
func FuzzDecode(f *testing.F) {
	ins := AppendRecord(nil, Record{Kind: KindInsert, Name: "a.xml", Data: []byte("<a/>"), Client: 7, Seq: 1})
	del := AppendRecord(nil, Record{Kind: KindDelete, Name: "a.xml", Client: 7, Seq: 2})
	f.Add([]byte{})
	f.Add(ins)
	f.Add(append(append(append([]byte(nil), ins...), del...), 0, 1))
	f.Add(ins[:len(ins)-1])
	f.Add(make([]byte, recHeaderSize+8))
	f.Fuzz(func(t *testing.T, buf []byte) {
		buf = slices.Clip(buf)
		recs, n := Decode(buf)
		if n < 0 || n > len(buf) {
			t.Fatalf("prefix %d of a %d-byte input", n, len(buf))
		}
		var again []byte
		for _, r := range recs {
			again = append(again, AppendRecord(nil, r)...)
		}
		if !bytes.Equal(again, buf[:n]) {
			t.Fatalf("%d records re-encode to %x, want the prefix %x", len(recs), again, buf[:n])
		}
		// DecodeOne accepts exactly the inputs Decode reads as one
		// record consuming every byte, as that record.
		one, err := DecodeOne(buf)
		if whole := len(recs) == 1 && n == len(buf); whole != (err == nil) {
			t.Fatalf("Decode reads %d records in %d of %d bytes, DecodeOne: %v", len(recs), n, len(buf), err)
		}
		if err == nil && !reflect.DeepEqual(one, recs[0]) {
			t.Fatalf("DecodeOne = %+v, Decode = %+v", one, recs[0])
		}
	})
}
