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

// QueryRequest is the OpQuery payload: one workload query with bound
// parameters and the client's remaining deadline (0 = none), which the
// server turns back into a context timeout so cancellation crosses the
// wire.
type QueryRequest struct {
	Query   core.QueryID
	Params  core.Params
	Timeout time.Duration
}

// EncodeQueryRequest serializes a QueryRequest (params in sorted key order).
func EncodeQueryRequest(r QueryRequest) []byte {
	return AppendQueryRequest(nil, r)
}

// AppendQueryRequest appends the QueryRequest encoding to dst and returns
// the extended slice — the allocation-free form the client uses with
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
	return r, nil
}

// EncodeResult serializes a core.Result (the OpQuery success payload).
func EncodeResult(r core.Result) []byte {
	return AppendResult(nil, r)
}

// AppendResult appends the core.Result encoding to dst and returns the
// extended slice — used by the server with a worker's reused response
// buffer.
func AppendResult(dst []byte, r core.Result) []byte {
	e := enc{dst}
	e.uvarint(uint64(len(r.Items)))
	for _, it := range r.Items {
		e.string(it)
	}
	e.bool(r.OrderGuaranteed)
	e.bool(r.MixedContentLost)
	e.varint(r.PageIO)
	if r.ShardErrors > 0 {
		// Self-delimiting optional tail, like the update idempotency key:
		// a zero count encodes nothing, so single-engine results stay
		// byte-identical to the pre-router encoding and old peers decode
		// them unchanged (old readers ignore the tail, old writers never
		// produce one).
		e.varint(int64(r.ShardErrors))
	}
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
	if len(d.b) > 0 { // degraded scatter-gather tail (see AppendResult)
		v, err := d.varint()
		if err != nil {
			return r, err
		}
		if v <= 0 {
			return r, fmt.Errorf("wire: result shard-error tail %d, want > 0", v)
		}
		r.ShardErrors = int(v)
	}
	if len(d.b) != 0 {
		return r, fmt.Errorf("wire: %d trailing bytes after result", len(d.b))
	}
	return r, nil
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

// EncodeUpdateRequest serializes an UpdateRequest.
func EncodeUpdateRequest(r UpdateRequest) []byte {
	return AppendUpdateRequest(nil, r)
}

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
	return r, nil
}

// LoadRequest is the OpLoad payload: the full serialized database plus
// the client's remaining deadline.
type LoadRequest struct {
	DB      core.Database
	Timeout time.Duration
}

// EncodeLoadRequest serializes a LoadRequest.
func EncodeLoadRequest(r LoadRequest) []byte {
	var e enc
	e.byte(byte(r.DB.Class))
	e.byte(byte(r.DB.Size))
	e.uvarint(uint64(len(r.DB.Docs)))
	for _, doc := range r.DB.Docs {
		e.string(doc.Name)
		e.bytes(doc.Data)
	}
	e.duration(r.Timeout)
	return e.b
}

// DecodeLoadRequest parses an OpLoad payload.
func DecodeLoadRequest(b []byte) (LoadRequest, error) {
	d := dec{b}
	var r LoadRequest
	c, err := d.byte()
	if err != nil {
		return r, err
	}
	s, err := d.byte()
	if err != nil {
		return r, err
	}
	r.DB.Class, r.DB.Size = core.Class(c), core.Size(s)
	n, err := d.uvarint()
	if err != nil {
		return r, err
	}
	r.DB.Docs = make([]core.Doc, 0, min(n, 1<<16))
	for i := uint64(0); i < n; i++ {
		name, err := d.string()
		if err != nil {
			return r, err
		}
		data, err := d.bytes()
		if err != nil {
			return r, err
		}
		r.DB.Docs = append(r.DB.Docs, core.Doc{Name: name, Data: data})
	}
	if r.Timeout, err = d.duration(); err != nil {
		return r, err
	}
	return r, nil
}

// EncodeLoadStats serializes a core.LoadStats (the OpLoad success payload).
func EncodeLoadStats(st core.LoadStats) []byte {
	var e enc
	e.varint(int64(st.Documents))
	e.varint(int64(st.Rows))
	e.varint(int64(st.Nodes))
	e.varint(int64(st.Bytes))
	e.varint(st.PageIO)
	e.varint(int64(st.SkippedMixed))
	return e.b
}

// DecodeLoadStats parses an OpLoad success payload.
func DecodeLoadStats(b []byte) (core.LoadStats, error) {
	d := dec{b}
	var st core.LoadStats
	for _, dst := range []*int{&st.Documents, &st.Rows, &st.Nodes, &st.Bytes} {
		v, err := d.varint()
		if err != nil {
			return st, err
		}
		*dst = int(v)
	}
	v, err := d.varint()
	if err != nil {
		return st, err
	}
	st.PageIO = v
	if v, err = d.varint(); err != nil {
		return st, err
	}
	st.SkippedMixed = int(v)
	return st, nil
}

// EncodeIndexSpecs serializes the OpIndexes payload.
func EncodeIndexSpecs(specs []core.IndexSpec) []byte {
	var e enc
	e.uvarint(uint64(len(specs)))
	for _, s := range specs {
		e.byte(byte(s.Class))
		e.string(s.Target)
	}
	return e.b
}

// DecodeIndexSpecs parses an OpIndexes payload.
func DecodeIndexSpecs(b []byte) ([]core.IndexSpec, error) {
	d := dec{b}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	specs := make([]core.IndexSpec, 0, min(n, 1<<12))
	for i := uint64(0); i < n; i++ {
		c, err := d.byte()
		if err != nil {
			return nil, err
		}
		t, err := d.string()
		if err != nil {
			return nil, err
		}
		specs = append(specs, core.IndexSpec{Class: core.Class(c), Target: t})
	}
	return specs, nil
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
	return core.Class(b[0]), core.Size(b[1]), nil
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
	return d.varint()
}

// maxPlanDepth bounds DecodePlanNode recursion so a malicious or corrupt
// payload cannot blow the stack.
const maxPlanDepth = 64

// EncodePlanNode serializes a plan tree (the OpExplain success payload):
// a recursive preorder encoding of op/target/detail, the cost estimates
// as IEEE-754 bit patterns, and the child count.
func EncodePlanNode(n *core.PlanNode) []byte { return AppendPlanNode(nil, n) }

// AppendPlanNode appends the EncodePlanNode encoding of n to dst.
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
	if len(d.b) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after plan tree", len(d.b))
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
