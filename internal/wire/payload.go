// Payload encodings for the remote engine operations. Every encoding is
// hand-rolled varint/length-prefixed binary: deterministic (maps are
// encoded in sorted key order), allocation-light, and versioned only by
// the frame header — the payloads themselves never change shape within a
// protocol version.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"xbench/internal/core"
)

// ErrTruncated marks a payload that ended before its declared contents.
var ErrTruncated = errors.New("wire: truncated payload")

// ErrTrailing marks a payload with bytes after its last field: every
// payload is exactly its encoding, so they are corruption.
var ErrTrailing = errors.New("wire: trailing bytes after payload")

// enc is a tiny append-only payload writer.
type enc struct{ b []byte }

func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) byte(v byte)      { e.b = append(e.b, v) }
func (e *enc) bytes(v []byte)   { e.uvarint(uint64(len(v))); e.b = append(e.b, v...) }
func (e *enc) string(v string)  { e.uvarint(uint64(len(v))); e.b = append(e.b, v...) }

func (e *enc) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

func (e *enc) duration(v time.Duration) { e.varint(int64(v)) }

// dec is the matching payload reader.
type dec struct{ b []byte }

func (d *dec) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, ErrTruncated
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *dec) varint() (int64, error) {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		return 0, ErrTruncated
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *dec) byte() (byte, error) {
	if len(d.b) < 1 {
		return 0, ErrTruncated
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v, nil
}

func (d *dec) bytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(len(d.b)) < n {
		return nil, ErrTruncated
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v, nil
}

func (d *dec) string() (string, error) {
	v, err := d.bytes()
	return string(v), err
}

func (d *dec) bool() (bool, error) {
	v, err := d.byte()
	return v != 0, err
}

func (d *dec) duration() (time.Duration, error) {
	v, err := d.varint()
	return time.Duration(v), err
}

// end refuses what is left after a payload's last field.
func (d *dec) end() error {
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(d.b))
	}
	return nil
}

// QueryRequest is the OpQuery payload: one workload query with bound
// parameters and the client's remaining deadline (0 = none), which the
// server turns back into a context timeout so cancellation crosses the
// wire.
type QueryRequest struct {
	Query   core.QueryID
	Params  core.Params
	Timeout time.Duration
}

// AppendQueryRequest appends the QueryRequest encoding (params in sorted
// key order) to dst and returns the extended slice — the allocation-free form the client uses with
// pooled buffers.
func AppendQueryRequest(dst []byte, r QueryRequest) []byte {
	e := enc{dst}
	e.varint(int64(r.Query))
	keys := make([]string, 0, len(r.Params))
	for k := range r.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.string(k)
		e.string(r.Params[k])
	}
	e.duration(r.Timeout)
	return e.b
}

// DecodeQueryRequest parses an OpQuery payload.
func DecodeQueryRequest(b []byte) (QueryRequest, error) {
	d := dec{b}
	var r QueryRequest
	q, err := d.varint()
	if err != nil {
		return r, err
	}
	r.Query = core.QueryID(q)
	n, err := d.uvarint()
	if err != nil {
		return r, err
	}
	if n > 0 {
		r.Params = make(core.Params, n)
	}
	for i := uint64(0); i < n; i++ {
		k, err := d.string()
		if err != nil {
			return r, err
		}
		v, err := d.string()
		if err != nil {
			return r, err
		}
		r.Params[k] = v
	}
	if r.Timeout, err = d.duration(); err != nil {
		return r, err
	}
	return r, d.end()
}

// AppendResult appends the core.Result encoding (the OpQuery success
// payload) to dst and returns the extended slice — used by the server
// with a worker's reused response buffer.
func AppendResult(dst []byte, r core.Result) []byte {
	e := enc{dst}
	e.uvarint(uint64(len(r.Items)))
	for _, it := range r.Items {
		e.string(it)
	}
	e.bool(r.OrderGuaranteed)
	e.bool(r.MixedContentLost)
	e.varint(r.PageIO)
	return e.b
}

// DecodeResult parses an OpQuery success payload.
func DecodeResult(b []byte) (core.Result, error) {
	d := dec{b}
	var r core.Result
	n, err := d.uvarint()
	if err != nil {
		return r, err
	}
	r.Items = make([]string, 0, min(n, 1<<16))
	for i := uint64(0); i < n; i++ {
		it, err := d.string()
		if err != nil {
			return r, err
		}
		r.Items = append(r.Items, it)
	}
	if r.OrderGuaranteed, err = d.bool(); err != nil {
		return r, err
	}
	if r.MixedContentLost, err = d.bool(); err != nil {
		return r, err
	}
	if r.PageIO, err = d.varint(); err != nil {
		return r, err
	}
	return r, d.end()
}

// IdemKey identifies one logical update exactly once across retries:
// Client is the issuing client's random 64-bit identity, Seq its
// per-client monotonic sequence number. A retry re-sends the identical
// key, so the server can recognize a duplicate and answer with the
// original outcome instead of re-applying. The zero key (Client == 0)
// means "no key": a server refuses an update carrying it.
type IdemKey struct {
	Client uint64
	Seq    uint64
}

// Valid reports whether the key identifies an update (non-zero client).
func (k IdemKey) Valid() bool { return k.Client != 0 }

// String formats the key the way journals and logs print it.
func (k IdemKey) String() string {
	return fmt.Sprintf("%016x/%d", k.Client, k.Seq)
}

// UpdateRequest is the OpInsert/OpReplace/OpDelete payload (Data is empty
// for deletes). Key is the update's idempotency key; every update carries
// one.
type UpdateRequest struct {
	Name    string
	Data    []byte
	Timeout time.Duration
	Key     IdemKey
}

// errNoKey refuses an update payload carrying the zero key.
var errNoKey = errors.New("wire: update without an idempotency key")

// AppendUpdateRequest appends the UpdateRequest encoding to dst and
// returns the extended slice.
func AppendUpdateRequest(dst []byte, r UpdateRequest) []byte {
	e := enc{dst}
	e.string(r.Name)
	e.bytes(r.Data)
	e.duration(r.Timeout)
	e.uvarint(r.Key.Client)
	e.uvarint(r.Key.Seq)
	return e.b
}

// DecodeUpdateRequest parses an update payload. A payload that ends
// before its key (ErrTruncated) or carries the zero key (errNoKey) is
// refused: every update is keyed.
func DecodeUpdateRequest(b []byte) (UpdateRequest, error) {
	d := dec{b}
	var r UpdateRequest
	var err error
	if r.Name, err = d.string(); err != nil {
		return r, err
	}
	if r.Data, err = d.bytes(); err != nil {
		return r, err
	}
	if r.Timeout, err = d.duration(); err != nil {
		return r, err
	}
	if r.Key.Client, err = d.uvarint(); err != nil {
		return r, err
	}
	if r.Key.Seq, err = d.uvarint(); err != nil {
		return r, err
	}
	if !r.Key.Valid() {
		return r, errNoKey
	}
	return r, d.end()
}

// EncodeClassSize serializes the OpSupports payload.
func EncodeClassSize(c core.Class, s core.Size) []byte {
	return []byte{byte(c), byte(s)}
}

// DecodeClassSize parses an OpSupports payload.
func DecodeClassSize(b []byte) (core.Class, core.Size, error) {
	if len(b) < 2 {
		return 0, 0, ErrTruncated
	}
	d := dec{b[2:]}
	return core.Class(b[0]), core.Size(b[1]), d.end()
}

// EncodeInt64 serializes a single counter (the OpPageIO success payload).
func EncodeInt64(v int64) []byte {
	var e enc
	e.varint(v)
	return e.b
}

// DecodeInt64 parses an OpPageIO success payload.
func DecodeInt64(b []byte) (int64, error) {
	d := dec{b}
	v, err := d.varint()
	if err != nil {
		return 0, err
	}
	return v, d.end()
}

// maxPlanDepth bounds DecodePlanNode recursion so a malicious or corrupt
// payload cannot blow the stack.
const maxPlanDepth = 64

// AppendPlanNode appends the encoding of plan tree n (the OpExplain
// success payload) to dst: a recursive preorder encoding of
// op/target/detail, the cost estimates as IEEE-754 bit patterns, and the
// child count.
func AppendPlanNode(dst []byte, n *core.PlanNode) []byte {
	e := enc{b: dst}
	appendPlanNode(&e, n)
	return e.b
}

func appendPlanNode(e *enc, n *core.PlanNode) {
	if n == nil {
		n = &core.PlanNode{}
	}
	e.string(n.Op)
	e.string(n.Target)
	e.string(n.Detail)
	e.uvarint(math.Float64bits(n.EstPages))
	e.uvarint(math.Float64bits(n.EstRows))
	e.uvarint(uint64(len(n.Children)))
	for _, c := range n.Children {
		appendPlanNode(e, c)
	}
}

// DecodePlanNode parses an OpExplain success payload.
func DecodePlanNode(b []byte) (*core.PlanNode, error) {
	d := dec{b}
	n, err := decodePlanNode(&d, 0)
	if err != nil {
		return nil, err
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return n, nil
}

func decodePlanNode(d *dec, depth int) (*core.PlanNode, error) {
	if depth > maxPlanDepth {
		return nil, fmt.Errorf("wire: plan tree deeper than %d", maxPlanDepth)
	}
	n := &core.PlanNode{}
	var err error
	if n.Op, err = d.string(); err != nil {
		return nil, err
	}
	if n.Target, err = d.string(); err != nil {
		return nil, err
	}
	if n.Detail, err = d.string(); err != nil {
		return nil, err
	}
	pages, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	rows, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	n.EstPages, n.EstRows = math.Float64frombits(pages), math.Float64frombits(rows)
	kids, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	// Each child encodes to at least one byte; a count beyond the
	// remaining payload is corruption, not a big tree.
	if kids > uint64(len(d.b)) {
		return nil, ErrTruncated
	}
	if kids > 0 {
		n.Children = make([]*core.PlanNode, 0, kids)
	}
	for i := uint64(0); i < kids; i++ {
		c, err := decodePlanNode(d, depth+1)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, c)
	}
	return n, nil
}
