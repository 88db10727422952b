// Pooled scratch buffers for the client's request path: the client
// encodes every request payload into a buffer drawn from this pool, so
// steady-state requests allocate no per-request payload garbage. Frames
// are not encoded here: the server and the client's mux each keep their
// own buffer, a worker its response scratch, a connection or mux its
// write buffer.
//
// Ownership contract: a buffer obtained from GetBuf is owned exclusively
// by the caller until PutBuf, and PutBuf transfers ownership back to the
// pool — the caller must not retain the buffer, any slice of it, or
// anything decoded in place over it past the Put. Payloads recorded
// elsewhere (decoded request views) must NOT come from the pool; see
// DESIGN.md §13.
package wire

import "sync"

// MaxKeptBuf caps the capacity of a scratch buffer kept for reuse (1
// MiB), pooled or held by a connection: a giant load payload or result
// would otherwise pin its allocation for good.
const MaxKeptBuf = 1 << 20

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetBuf returns a zero-length scratch buffer with pooled capacity. The
// extra indirection (pointer to slice) lets PutBuf return grown buffers
// without allocating a new header per cycle.
func GetBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuf returns a buffer to the pool. Passing nil is a no-op; buffers
// grown beyond MaxKeptBuf are dropped for the GC instead.
func PutBuf(b *[]byte) {
	if b == nil || cap(*b) > MaxKeptBuf {
		return
	}
	bufPool.Put(b)
}
