// Package updatelog is the one log the repository keeps: the logical redo
// journal of the served system. The server applies a document update (U1
// insert, U2 replace, U3 delete), appends its record to a real file and
// acknowledges it once the fsync returned (FileLog). Engines keep no log:
// their pages are process memory, so a crash — simulated or real — ends
// the process, and recovery is the restart `xbench serve --journal` runs:
// server.Reopen loads the database into a fresh engine, re-applies the
// committed records in order through its update methods (Apply) and seeds
// the dedup table from their keys. Replay is deterministic because each
// update was validated against the very prefix state replay reconstructs.
package updatelog

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"

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
// targets, (for insert/replace) the full serialized document, and — for
// server-side journals — the idempotency key of the client request that
// caused it. The key is what makes retried updates exactly-once across a
// crash: recovery rebuilds the server's dedup table from the keyed
// records, so a replayed retry after restart answers with the original
// result instead of re-applying. An update sent without a key journals a
// zero one.
type Record struct {
	Kind Kind
	Name string
	Data []byte
	// Client and Seq form the idempotency key (zero when unkeyed).
	Client uint64
	Seq    uint64
}

// Keyed reports whether the record carries an idempotency key.
func (r Record) Keyed() bool { return r.Client != 0 }

// recMagic guards every record; zeroed or torn bytes fail the check and
// end the committed prefix. "UPD2" added the idempotency-key fields.
const recMagic = 0x55504432 // "UPD2"

// record layout:
//
//	magic(4) kind(1) client(8) seq(8) nameLen(4) dataLen(4) name data sum(8)
const recHeaderSize = 4 + 1 + 8 + 8 + 4 + 4

func checksum(r Record) uint64 {
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

func encodeRecord(r Record) []byte {
	buf := make([]byte, recHeaderSize+len(r.Name)+len(r.Data)+8)
	binary.BigEndian.PutUint32(buf[0:4], recMagic)
	buf[4] = byte(r.Kind)
	binary.BigEndian.PutUint64(buf[5:13], r.Client)
	binary.BigEndian.PutUint64(buf[13:21], r.Seq)
	binary.BigEndian.PutUint32(buf[21:25], uint32(len(r.Name)))
	binary.BigEndian.PutUint32(buf[25:29], uint32(len(r.Data)))
	n := copy(buf[recHeaderSize:], r.Name)
	copy(buf[recHeaderSize+n:], r.Data)
	binary.BigEndian.PutUint64(buf[len(buf)-8:], checksum(r))
	return buf
}

// decodeRecord reads one record from buf, returning the record, the
// bytes consumed, and whether the record was durably complete. A failed
// decode (bad magic, impossible lengths, truncation, checksum mismatch)
// marks the end of the committed prefix: the record was mid-append at the
// crash.
func decodeRecord(buf []byte) (Record, int, bool) {
	if len(buf) < recHeaderSize+8 {
		return Record{}, 0, false
	}
	if binary.BigEndian.Uint32(buf[0:4]) != recMagic {
		return Record{}, 0, false
	}
	r := Record{Kind: Kind(buf[4])}
	if r.Kind < KindInsert || r.Kind > KindDelete {
		return Record{}, 0, false
	}
	r.Client = binary.BigEndian.Uint64(buf[5:13])
	r.Seq = binary.BigEndian.Uint64(buf[13:21])
	nameLen := int(binary.BigEndian.Uint32(buf[21:25]))
	dataLen := int(binary.BigEndian.Uint32(buf[25:29]))
	total := recHeaderSize + nameLen + dataLen + 8
	if nameLen < 0 || dataLen < 0 || total > len(buf) {
		return Record{}, 0, false
	}
	r.Name = string(buf[recHeaderSize : recHeaderSize+nameLen])
	r.Data = append([]byte(nil), buf[recHeaderSize+nameLen:recHeaderSize+nameLen+dataLen]...)
	if len(r.Data) == 0 {
		r.Data = nil
	}
	if binary.BigEndian.Uint64(buf[total-8:total]) != checksum(r) {
		return Record{}, 0, false
	}
	return r, total, true
}

// Apply re-applies committed records, in commit order, through an
// engine's public update methods: the replay half of the server's restart
// path (server.Reopen) and of a replica's journal shipping. A record of a
// kind it does not know stops the replay with an error, before anything
// of it is applied.
func Apply(ctx context.Context, e core.Engine, recs []Record) error {
	for _, r := range recs {
		var err error
		switch r.Kind {
		case KindInsert:
			err = e.InsertDocument(ctx, r.Name, r.Data)
		case KindReplace:
			err = e.ReplaceDocument(ctx, r.Name, r.Data)
		case KindDelete:
			err = e.DeleteDocument(ctx, r.Name)
		default:
			err = fmt.Errorf("unknown record kind")
		}
		if err != nil {
			return fmt.Errorf("updatelog: replay %s %q: %w", r.Kind, r.Name, err)
		}
	}
	return nil
}
