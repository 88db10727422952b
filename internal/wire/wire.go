// Package wire defines the binary client/server protocol of the network
// serving layer: a length-prefixed, checksummed frame format over TCP and
// the payload encodings for every remote engine operation. The protocol
// is deliberately tiny — no reflection, no schema negotiation — so a
// request costs one buffered write and one frame read on each side, and
// the benchmark's wire latency measures the engine plus the network, not
// the serialization stack.
//
// Frame layout (all integers big-endian):
//
//	offset size field
//	0      2    magic 0x5842 ("XB")
//	2      1    protocol version (5; readers accept nothing else)
//	3      1    request: op kind / response: status code
//	4      8    request id (echoed verbatim in the response)
//	12     4    payload length
//	16     4    CRC32 (IEEE) of the payload
//	20     n    payload
//
// A torn frame (connection cut mid-frame) surfaces as
// io.ErrUnexpectedEOF; a corrupted frame fails the CRC with ErrChecksum.
// Both are terminal for the connection: framing state cannot be resynced.
//
// Error responses carry a one-byte status in the header and the message
// text as payload; DecodeError maps status codes back onto the typed
// sentinel errors (ErrOverloaded, core.ErrUnsupported, core.ErrNoQuery,
// context.DeadlineExceeded, ...) so remote callers can errors.Is exactly
// as in-process callers do.
package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"xbench/internal/core"
)

// Magic is the two-byte frame preamble ("XB").
const Magic uint16 = 0x5842

// Version is the protocol version this package writes. Version 2 added
// the idempotency key to update payloads; version 3 ships the journal as
// its own bytes, addressed by byte offset (OpJournal); version 4 has no
// load or index-build op, so the op codes after OpQuery moved down;
// version 5 sends every update as one OpUpdate carrying a journal record,
// so OpExplain and OpJournal moved down two. A reader accepts this
// version alone: every peer is built from this tree.
const Version byte = 5

// MaxPayload bounds a frame payload (64 MiB). A length field above it
// fails with ErrTooLarge before any allocation, so a corrupt or hostile
// length prefix cannot balloon memory.
const MaxPayload = 64 << 20

// headerSize is the fixed frame header length in bytes.
const headerSize = 20

// MaxKeptBuf caps the capacity of a scratch buffer kept for reuse (1
// MiB) by a connection, a mux or a worker: a giant result or journal
// window would otherwise pin its allocation for good.
const MaxKeptBuf = 1 << 20

// Op identifies a request operation: one op per remote call, so the
// client answers each core.Engine method it serves with one round trip.
// There is no op for Load or BuildIndexes: a served engine holds the
// database its own process loaded (`xbench serve`, or server.Reopen),
// and the client refuses both without a round trip.
type Op byte

const (
	// OpPing checks liveness; the response payload is the engine name.
	OpPing Op = iota + 1
	// OpQuery executes one workload query (payload: QueryRequest).
	OpQuery
	// OpColdReset drops the engine's caches.
	OpColdReset
	// OpPageIO reads the engine's cumulative page I/O counter.
	OpPageIO
	// OpSupports asks whether the engine hosts a class/size combination.
	OpSupports
	// OpUpdate is one update of workload U1–U3 (payload: the request's
	// timeout, then the update as one journal record, which carries its
	// kind and idempotency key; see AppendUpdate).
	OpUpdate
	// OpExplain returns the costed physical plan for one workload query
	// without executing it (payload: QueryRequest; response PlanNode).
	// An engine that cannot explain answers StatusNoExplain.
	OpExplain
	// OpJournal pulls a window of the committed update journal (payload:
	// JournalPullRequest; response: the journal's bytes from that
	// position, whole records exactly as the file holds them, which
	// updatelog.Decode reads). It is how read replicas ship the primary's
	// durable journal: poll, check, apply, advance. Servers without a
	// journal, and a journal that does not hold the position, answer
	// StatusBadRequest.
	OpJournal

	// NumOps bounds the op codes: every op is below it, so a table indexed
	// by op has this many entries (entry 0 unused).
	NumOps
)

// String returns the metric-friendly lowercase op name.
func (o Op) String() string {
	switch o {
	case OpPing:
		return "ping"
	case OpQuery:
		return "query"
	case OpColdReset:
		return "coldreset"
	case OpPageIO:
		return "pageio"
	case OpSupports:
		return "supports"
	case OpUpdate:
		return "update"
	case OpExplain:
		return "explain"
	case OpJournal:
		return "journal"
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Status is the one-byte response disposition.
type Status byte

const (
	// StatusOK carries the operation's result payload.
	StatusOK Status = iota
	// StatusOverloaded: the admission controller rejected the request
	// (queue full or queue-wait deadline expired).
	StatusOverloaded
	// StatusUnsupported maps core.ErrUnsupported.
	StatusUnsupported
	// StatusNoQuery maps core.ErrNoQuery.
	StatusNoQuery
	// StatusReadOnly maps core.ErrReadOnly.
	StatusReadOnly
	// StatusCanceled maps context.Canceled.
	StatusCanceled
	// StatusDeadline maps context.DeadlineExceeded (per-request timeout).
	StatusDeadline
	// StatusShutdown: the server is draining and accepts no new work.
	StatusShutdown
	// StatusBadRequest: the frame or payload could not be decoded.
	StatusBadRequest
	// StatusInternal carries any other engine error as text.
	StatusInternal
	// StatusNoExplain maps core.ErrNoExplain (the engine executes queries
	// but cannot describe their plans).
	StatusNoExplain
)

// Typed protocol errors. ErrOverloaded and ErrShutdown are the two
// admission-control rejections a well-behaved client must expect under
// load; the rest are framing violations that poison the connection.
var (
	// ErrOverloaded is returned to callers the admission controller turned
	// away. It is load shedding, not failure: the request was never started.
	ErrOverloaded = errors.New("wire: server overloaded")
	// ErrShutdown is returned for requests arriving while the server drains.
	ErrShutdown = errors.New("wire: server shutting down")
	// ErrChecksum marks a frame whose payload failed CRC verification.
	ErrChecksum = errors.New("wire: frame checksum mismatch")
	// ErrBadMagic marks a frame that does not start with the XB preamble.
	ErrBadMagic = errors.New("wire: bad frame magic")
	// ErrBadVersion marks a frame with an unknown protocol version.
	ErrBadVersion = errors.New("wire: unsupported protocol version")
	// ErrTooLarge marks a frame whose declared payload exceeds MaxPayload.
	ErrTooLarge = errors.New("wire: frame payload too large")
	// ErrBadRequest is the typed form of a StatusBadRequest response: the
	// server could not decode the frame or payload. Old servers also answer
	// it for ops they predate, so the client probes feature support with
	// errors.Is(err, ErrBadRequest).
	ErrBadRequest = errors.New("wire: bad request")
)

// Frame is one protocol message. Kind holds the Op on requests and the
// Status on responses; ID ties a response to its request.
type Frame struct {
	Kind    byte
	ID      uint64
	Payload []byte
}

// AppendFrameFunc is the frame encoder: it appends one frame of kind and
// id to dst, whose payload is what payload appends to the slice it is
// handed. The header is reserved first and filled in, length and CRC,
// once the payload is in, so a payload is encoded in place, with no
// buffer of its own. A payload over MaxPayload fails with ErrTooLarge and
// dst's bytes come back as they were (in a grown array, perhaps). The
// server and the client's mux encode into a buffer they keep and write
// it with a single Write, header and payload together.
func AppendFrameFunc(dst []byte, kind byte, id uint64, payload func([]byte) []byte) ([]byte, error) {
	start := len(dst)
	dst = payload(append(dst, make([]byte, headerSize)...))
	n := len(dst) - start - headerSize
	if n > MaxPayload {
		return dst[:start], ErrTooLarge
	}
	hdr := dst[start : start+headerSize]
	binary.BigEndian.PutUint16(hdr[0:2], Magic)
	hdr[2] = Version
	hdr[3] = kind
	binary.BigEndian.PutUint64(hdr[4:12], id)
	binary.BigEndian.PutUint32(hdr[12:16], uint32(n))
	binary.BigEndian.PutUint32(hdr[16:20], crc32.ChecksumIEEE(dst[start+headerSize:]))
	return dst, nil
}

// AppendFrame appends f, encoded, to dst and returns the extended slice:
// AppendFrameFunc with f's payload copied in. A payload over MaxPayload
// is refused before it is copied.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return dst, ErrTooLarge
	}
	return AppendFrameFunc(dst, f.Kind, f.ID, func(b []byte) []byte { return append(b, f.Payload...) })
}

// ReadFrame reads and verifies one frame. A connection cut mid-frame
// returns io.ErrUnexpectedEOF (io.EOF only on a clean boundary); a
// payload failing its CRC returns ErrChecksum.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	if binary.BigEndian.Uint16(hdr[0:2]) != Magic {
		return Frame{}, ErrBadMagic
	}
	if hdr[2] != Version {
		return Frame{}, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, hdr[2], Version)
	}
	f := Frame{Kind: hdr[3], ID: binary.BigEndian.Uint64(hdr[4:12])}
	n := binary.BigEndian.Uint32(hdr[12:16])
	if n > MaxPayload {
		return Frame{}, ErrTooLarge
	}
	sum := binary.BigEndian.Uint32(hdr[16:20])
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, err
		}
	}
	if crc32.ChecksumIEEE(f.Payload) != sum {
		return Frame{}, ErrChecksum
	}
	return f, nil
}

// StatusFor maps an engine/handler error to the response status carrying
// it over the wire. Order matters: context errors are checked before the
// engine sentinels because a timed-out engine call usually wraps both.
func StatusFor(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, ErrOverloaded):
		return StatusOverloaded
	case errors.Is(err, ErrShutdown):
		return StatusShutdown
	case errors.Is(err, context.DeadlineExceeded):
		return StatusDeadline
	case errors.Is(err, context.Canceled):
		return StatusCanceled
	case errors.Is(err, core.ErrUnsupported):
		return StatusUnsupported
	case errors.Is(err, core.ErrNoQuery):
		return StatusNoQuery
	case errors.Is(err, core.ErrReadOnly):
		return StatusReadOnly
	case errors.Is(err, core.ErrNoExplain):
		return StatusNoExplain
	default:
		return StatusInternal
	}
}

// DecodeError reconstructs the typed error a non-OK response carries: the
// message text from the payload wrapping the sentinel the status maps to,
// so errors.Is works identically on both sides of the wire.
func DecodeError(s Status, payload []byte) error {
	msg := string(payload)
	wrap := func(sentinel error) error {
		if msg == "" {
			return sentinel
		}
		return fmt.Errorf("%s: %w", msg, sentinel)
	}
	switch s {
	case StatusOK:
		return nil
	case StatusOverloaded:
		return wrap(ErrOverloaded)
	case StatusShutdown:
		return wrap(ErrShutdown)
	case StatusUnsupported:
		return wrap(core.ErrUnsupported)
	case StatusNoQuery:
		return wrap(core.ErrNoQuery)
	case StatusReadOnly:
		return wrap(core.ErrReadOnly)
	case StatusCanceled:
		return wrap(context.Canceled)
	case StatusDeadline:
		return wrap(context.DeadlineExceeded)
	case StatusNoExplain:
		return wrap(core.ErrNoExplain)
	case StatusBadRequest:
		return wrap(ErrBadRequest)
	default:
		if msg == "" {
			msg = fmt.Sprintf("status %d", byte(s))
		}
		return fmt.Errorf("wire: remote: %s", msg)
	}
}
