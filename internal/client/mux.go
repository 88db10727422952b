// The transport: many in-flight requests multiplexed over a small set of
// connections per address.
//
// A caller encodes its frame, payload included, straight into the
// connection's one write buffer (wire.AppendFrameFunc) and hands it to
// the kernel with one conn.Write under the write lock, then waits for
// its response by frame ID. A single reader goroutine routes
// response frames back to waiters by ID; responses may return in any
// order, which the serving side exploits by executing a connection's
// requests concurrently. N concurrent callers cost Config.MuxConns
// connections, not N.
//
// Buffer ownership: a request payload has no buffer of its own. The
// write buffer belongs to whichever caller holds the write lock, which
// encodes its payload into it and writes it before roundTrip waits for
// the response; the next holder overwrites it. Whatever the payload
// builder reads (a record's document, a query's parameters) is only read
// under the lock, so it is the caller's again once roundTrip returns —
// whatever the outcome.
//
// A transport error fails the whole mux: the connection closes, every
// waiter gets the error, and the next request through the endpoint dials
// a replacement. Retry, failover and breaker decisions stay in roundTrip
// (client.go): a mux failure is one transport error per rider.
package client

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"xbench/internal/wire"
)

// muxConn is one multiplexed connection. It dies on first error — muxes
// are replaced, never repaired.
type muxConn struct {
	conn net.Conn

	// wlock is the write lock: one slot, held by the caller writing its
	// frame from wbuf. A channel, not a mutex, so a caller waiting for it
	// still honours its context.
	wlock chan struct{}
	wbuf  []byte

	// pmu guards the waiter registry and the terminal error.
	pmu     sync.Mutex
	pending map[uint64]chan wire.Frame
	err     error
}

// errMuxFailed is the generic mux-failure cause when none was recorded
// (it should never surface; a real error always precedes it).
var errMuxFailed = errors.New("client: pipelined connection failed")

func newMuxConn(conn net.Conn) *muxConn {
	m := &muxConn{
		conn:    conn,
		wlock:   make(chan struct{}, 1),
		pending: make(map[uint64]chan wire.Frame),
	}
	go m.readLoop()
	return m
}

// failed reports whether the mux has died (its next user must redial).
func (m *muxConn) failed() bool {
	m.pmu.Lock()
	defer m.pmu.Unlock()
	return m.err != nil
}

func (m *muxConn) lastErr() error {
	m.pmu.Lock()
	defer m.pmu.Unlock()
	if m.err == nil {
		return errMuxFailed
	}
	return m.err
}

// fail kills the mux once: records the cause, closes the connection and
// wakes every waiter with failure. Waiter channels are closed (not sent
// to) — a waiter distinguishes a real response by the channel's ok flag.
// The registry hand-off under pmu guarantees a channel is closed by fail
// or sent to by the reader, never both.
func (m *muxConn) fail(err error) {
	m.pmu.Lock()
	if m.err != nil {
		m.pmu.Unlock()
		return
	}
	m.err = err
	waiters := m.pending
	m.pending = nil
	m.pmu.Unlock()
	m.conn.Close()
	for _, ch := range waiters {
		close(ch)
	}
}

// roundTrip sends one request, whose payload is what payload appends to
// the slice it is handed, and waits for the response with the same ID.
// The frame is written before roundTrip waits, so whatever payload reads
// is the caller's again as soon as this returns, whatever the outcome.
func (m *muxConn) roundTrip(ctx context.Context, op wire.Op, id uint64, payload func([]byte) []byte) (wire.Frame, error) {
	respCh := make(chan wire.Frame, 1)
	m.pmu.Lock()
	if m.err != nil {
		err := m.err
		m.pmu.Unlock()
		return wire.Frame{}, err
	}
	m.pending[id] = respCh
	m.pmu.Unlock()

	if err := m.send(ctx, op, id, payload); err != nil {
		m.deregister(id)
		return wire.Frame{}, err
	}

	select {
	case resp, ok := <-respCh:
		if !ok {
			return wire.Frame{}, m.lastErr()
		}
		return resp, nil
	case <-ctx.Done():
		m.deregister(id)
		// The response may have raced in just before deregistration.
		select {
		case resp, ok := <-respCh:
			if ok {
				return resp, nil
			}
		default:
		}
		return wire.Frame{}, ctx.Err()
	}
}

// send encodes the request into the write buffer and writes it with one
// conn.Write, both under the write lock. The caller honours ctx while it
// waits for the lock and while it writes: when ctx ends mid-write,
// context.AfterFunc sets a write deadline in the past, which fails the
// Write. A failed or partial write leaves the stream mid-frame, so it
// fails the mux; an unencodable frame (a payload over wire.MaxPayload)
// writes nothing and fails only its own request.
func (m *muxConn) send(ctx context.Context, op wire.Op, id uint64, payload func([]byte) []byte) error {
	select {
	case m.wlock <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-m.wlock }()
	b, err := wire.AppendFrameFunc(m.wbuf[:0], byte(op), id, payload)
	if cap(b) <= wire.MaxKeptBuf {
		m.wbuf = b
	}
	if err != nil {
		return err
	}
	if ctx.Done() == nil {
		_, err = m.conn.Write(b)
	} else {
		stop := context.AfterFunc(ctx, func() { m.conn.SetWriteDeadline(time.Unix(1, 0)) })
		_, err = m.conn.Write(b)
		if !stop() && err == nil {
			// ctx ended as the write finished: its past deadline may
			// still land on the connection and fail a later, innocent
			// write. Retire the mux now instead.
			err = ctx.Err()
		}
	}
	if err != nil {
		m.fail(err)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return m.lastErr()
	}
	return nil
}

func (m *muxConn) deregister(id uint64) {
	m.pmu.Lock()
	delete(m.pending, id)
	m.pmu.Unlock()
}

// readLoop routes response frames to their waiters by ID. A frame with
// no waiter belonged to a context-canceled request and is dropped: on a
// shared connection an unknown ID is expected traffic, not
// desynchronization. The reader is buffered, so
// one kernel read pulls every response the server has written since the
// last one, instead of two syscalls per frame.
func (m *muxConn) readLoop() {
	br := bufio.NewReader(m.conn)
	for {
		f, err := wire.ReadFrame(br)
		if err != nil {
			m.fail(err)
			return
		}
		m.pmu.Lock()
		ch := m.pending[f.ID]
		delete(m.pending, f.ID)
		m.pmu.Unlock()
		if ch != nil {
			ch <- f // buffered; the reader never blocks on a slow waiter
		}
	}
}

// getMux returns the endpoint's next multiplexed connection in round-robin
// order, dialing a replacement if the slot is empty or its mux has died.
// Dials are serialized per endpoint (ep.muxMu): concurrent callers that
// hit the same dead slot wait for one replacement instead of each dialing
// their own.
func (c *Client) getMux(ep *endpoint) (*muxConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if ep.mux == nil {
		ep.mux = make([]*muxConn, c.cfg.MuxConns)
	}
	slot := ep.muxNext % len(ep.mux)
	ep.muxNext++
	if m := ep.mux[slot]; m != nil && !m.failed() {
		c.mu.Unlock()
		return m, nil
	}
	c.mu.Unlock()

	ep.muxMu.Lock()
	defer ep.muxMu.Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if m := ep.mux[slot]; m != nil && !m.failed() {
		// The caller ahead of us already replaced the slot; ride theirs.
		c.mu.Unlock()
		return m, nil
	}
	c.mu.Unlock()

	conn, err := net.DialTimeout("tcp", ep.addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	nm := newMuxConn(conn)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		nm.fail(ErrClosed)
		return nil, ErrClosed
	}
	ep.mux[slot] = nm
	c.mu.Unlock()
	return nm, nil
}

// attemptMux sends one request over the endpoint's next mux and waits
// for its response.
func (c *Client) attemptMux(ctx context.Context, ep *endpoint, op wire.Op, payload func([]byte) []byte) (wire.Frame, error) {
	m, err := c.getMux(ep)
	if err != nil {
		return wire.Frame{}, err
	}
	return m.roundTrip(ctx, op, c.nextID.Add(1), payload)
}
