// Package updatelog is the one log the repository keeps: the logical redo
// journal of the served system, and the one form an update takes. A
// served document update (U1 insert, U2 replace, U3 delete) is one
// Record from the client to the replica, and it reaches an engine
// through one method, Applier.Apply, which takes the update's durable
// step as an argument: the server passes the append of the record's
// bytes to a real file (FileLog.Append), which the engine runs after the
// apply and before it publishes the update, so an update is visible and
// acknowledged only once its fsync returned. Engines keep no log: their
// pages are process memory, so a crash — simulated or real — ends the
// process, and recovery is the restart `xbench serve --journal` runs:
// server.Reopen loads the database into a fresh engine, re-applies the
// committed records in order through Apply (Replay) and seeds the dedup
// table from their keys. Replay is deterministic because each update was
// validated against the very prefix state replay reconstructs.
package updatelog

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"

	"xbench/internal/core"
)

// Kind identifies the update operation a journal record describes.
type Kind uint8

const (
	// KindInsert is a U1 document insert.
	KindInsert Kind = 1
	// KindReplace is a U2 wholesale document replacement (upsert).
	KindReplace Kind = 2
	// KindDelete is a U3 document delete.
	KindDelete Kind = 3
)

// Valid reports whether k is one of U1–U3.
func (k Kind) Valid() bool { return k >= KindInsert && k <= KindDelete }

// String returns the update-workload name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInsert:
		return "insert"
	case KindReplace:
		return "replace"
	case KindDelete:
		return "delete"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Record is one journaled update: the operation, the document name it
// targets, (for insert/replace) the full serialized document, and the
// idempotency key of the client request that caused it. The key is what
// makes retried updates exactly-once across a crash: recovery rebuilds
// the server's dedup table from the records' keys, so a replayed retry
// after restart answers with the original result instead of re-applying.
type Record struct {
	Kind Kind
	Name string
	Data []byte
	// Client and Seq form the idempotency key.
	Client uint64
	Seq    uint64
}

// recMagic guards every record; zeroed or torn bytes fail the check and
// end the committed prefix. "UPD2" added the idempotency-key fields.
const recMagic = 0x55504432 // "UPD2"

// record layout:
//
//	magic(4) kind(1) client(8) seq(8) nameLen(4) dataLen(4) name data sum(8)
const recHeaderSize = 4 + 1 + 8 + 8 + 4 + 4

// Sum returns the checksum r's encoding ends with: what a journal reader
// names its position by (FileLog.Read's prev).
func (r Record) Sum() uint64 {
	h := fnv.New64a()
	var key [17]byte
	key[0] = byte(r.Kind)
	binary.BigEndian.PutUint64(key[1:9], r.Client)
	binary.BigEndian.PutUint64(key[9:17], r.Seq)
	h.Write(key[:])
	h.Write([]byte(r.Name))
	h.Write(r.Data)
	return h.Sum64()
}

// AppendRecord appends r's encoding to dst and returns the extended
// slice: the bytes the journal file holds, a replica is shipped and an
// OpUpdate request carries after its timeout.
func AppendRecord(dst []byte, r Record) []byte {
	dst = slices.Grow(dst, recHeaderSize+len(r.Name)+len(r.Data)+8)
	var hdr [recHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], recMagic)
	hdr[4] = byte(r.Kind)
	binary.BigEndian.PutUint64(hdr[5:13], r.Client)
	binary.BigEndian.PutUint64(hdr[13:21], r.Seq)
	binary.BigEndian.PutUint32(hdr[21:25], uint32(len(r.Name)))
	binary.BigEndian.PutUint32(hdr[25:29], uint32(len(r.Data)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, r.Name...)
	dst = append(dst, r.Data...)
	return binary.BigEndian.AppendUint64(dst, r.Sum())
}

// recordSize reads the length of the record buf starts with from its
// header; false when buf is shorter than a header or does not start
// with one.
func recordSize(buf []byte) (int, bool) {
	if len(buf) < recHeaderSize || binary.BigEndian.Uint32(buf[0:4]) != recMagic {
		return 0, false
	}
	nameLen := int(binary.BigEndian.Uint32(buf[21:25]))
	dataLen := int(binary.BigEndian.Uint32(buf[25:29]))
	return recHeaderSize + nameLen + dataLen + 8, true
}

// decodeRecord reads one record from buf, returning the record, the
// bytes consumed, and whether the record was durably complete. The
// record's Data aliases buf.
func decodeRecord(buf []byte) (Record, int, bool) {
	total, ok := recordSize(buf)
	if !ok || total > len(buf) {
		return Record{}, 0, false
	}
	r := Record{Kind: Kind(buf[4])}
	if !r.Kind.Valid() {
		return Record{}, 0, false
	}
	r.Client = binary.BigEndian.Uint64(buf[5:13])
	r.Seq = binary.BigEndian.Uint64(buf[13:21])
	nameEnd := recHeaderSize + int(binary.BigEndian.Uint32(buf[21:25]))
	r.Name = string(buf[recHeaderSize:nameEnd])
	if nameEnd < total-8 {
		r.Data = buf[nameEnd : total-8 : total-8]
	}
	if binary.BigEndian.Uint64(buf[total-8:total]) != r.Sum() {
		return Record{}, 0, false
	}
	return r, total, true
}

// ErrRecord refuses bytes DecodeOne cannot read as exactly one intact
// record.
var ErrRecord = errors.New("updatelog: not one intact record")

// DecodeOne reads b as exactly one record: whole, intact (magic,
// lengths, checksum) and with nothing after it, or ErrRecord. It is how
// a server reads the record an OpUpdate request carries; the record's
// Data aliases b.
func DecodeOne(b []byte) (Record, error) {
	if r, n, ok := decodeRecord(b); ok && n == len(b) {
		return r, nil
	}
	return Record{}, ErrRecord
}

// Decode reads the committed prefix of buf: the records of the longest
// run of whole, intact records at its start, in order, and the run's
// length n ≤ len(buf). A record that fails (bad magic, impossible
// lengths, truncation, checksum mismatch) ends the prefix: in a journal
// file it was mid-append at a crash (OpenFile), in a shipped window it
// was damaged on the way (a replica refuses a window with n < len).
func Decode(buf []byte) ([]Record, int) {
	var recs []Record
	n := 0
	for n < len(buf) {
		r, sz, ok := decodeRecord(buf[n:])
		if !ok {
			break
		}
		r.Data = bytes.Clone(r.Data)
		recs = append(recs, r)
		n += sz
	}
	return recs, n
}

// Applier is the optional extension to core.Engine through which every
// update reaches an engine — served, replayed, replicated, and the update
// workload's — and onto which core.Engine's three update methods are
// adapters. It is optional, like core.Explainer, because the benchmark's
// own engines hold core.Engine's method set.
type Applier interface {
	// Apply applies rec whole or not at all. durable, when not nil, is
	// the update's durable step — a served update's journal append and
	// sync — which runs once the update is applied and before any reader
	// can see it; a failing step fails the update like a failed apply.
	// rec's key is the update's identity on a served engine.
	Apply(ctx context.Context, rec Record, durable func() error) error
}

// Apply applies rec to e through its Applier. A record of a kind outside
// U1–U3 is an error naming the kind, and an engine that is not an Applier
// declines every update with core.ErrReadOnly.
func Apply(ctx context.Context, e core.Engine, rec Record, durable func() error) error {
	if !rec.Kind.Valid() {
		return fmt.Errorf("updatelog: %s is not an update kind", rec.Kind)
	}
	a, ok := e.(Applier)
	if !ok {
		return fmt.Errorf("updatelog: %s: %w", e.Name(), core.ErrReadOnly)
	}
	return a.Apply(ctx, rec, durable)
}

// Replay re-applies committed records, in commit order, through Apply
// with no durable step: the replay half of the server's restart path
// (server.Reopen) and of a replica's journal shipping. A failed record
// stops the replay with an error.
func Replay(ctx context.Context, e core.Engine, recs []Record) error {
	for _, r := range recs {
		if err := Apply(ctx, e, r, nil); err != nil {
			return fmt.Errorf("updatelog: replay %s %q: %w", r.Kind, r.Name, err)
		}
	}
	return nil
}
