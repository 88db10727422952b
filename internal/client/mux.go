// Pipelined transport: many in-flight requests multiplexed over a small
// set of connections per address, with writes coalesced into batched
// flushes.
//
// The pooled transport (client.go attempt) dedicates one connection to
// each in-flight request: N concurrent callers cost N connections and
// 2N syscalls per round trip. With Config.Pipeline on, callers instead
// encode their frame into the connection's forming batch buffer and wait
// for their response by frame ID. A single writer goroutine flushes the
// batch with one conn.Write — requests that arrive while a flush syscall
// is in progress accumulate into the next batch, so batching deepens
// exactly when load does (the same natural-batching shape as the
// journal's group commit). A single reader goroutine routes response
// frames back to waiters by ID; responses may return in any order, which
// the serving side exploits by executing a connection's requests
// concurrently.
//
// Buffer ownership (the aliasing rules the -race hammer test enforces):
// a caller's payload bytes are copied into the batch buffer inside
// enqueue, so the caller may recycle its payload buffer the moment
// roundTrip returns — even on a context-canceled request, whose frame
// (if it was enqueued at all) has already been copied out. Batch buffers
// themselves cycle through wire.GetBuf/PutBuf and are owned by exactly
// one party at a time: the forming batch by whichever caller holds wmu,
// a sealed batch by the writer until the flush returns.
//
// A transport error on either goroutine fails the whole mux: the
// connection closes, every waiter gets the error, and the next request
// through the endpoint dials a replacement. Retry, failover and breaker
// decisions stay in roundTrip (client.go) — a mux failure looks exactly
// like a poisoned pooled connection, just fanned out to all riders.
package client

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"

	"xbench/internal/wire"
)

// muxConn is one multiplexed connection. It dies on first error — muxes
// are replaced, never repaired.
type muxConn struct {
	conn net.Conn
	kick chan struct{} // buffered(1): batch has frames to flush
	done chan struct{} // closed by fail

	// wmu guards the forming batch.
	wmu   sync.Mutex
	batch *[]byte

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
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		batch:   wire.GetBuf(),
		pending: make(map[uint64]chan wire.Frame),
	}
	go m.writeLoop()
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
	close(m.done)
	m.pmu.Unlock()
	m.conn.Close()
	for _, ch := range waiters {
		close(ch)
	}
}

// roundTrip sends one frame and waits for the response with the same ID.
// The frame's payload is copied into the batch before roundTrip blocks,
// so the caller may reuse the payload buffer as soon as this returns,
// whatever the outcome.
func (m *muxConn) roundTrip(ctx context.Context, f wire.Frame) (wire.Frame, error) {
	respCh := make(chan wire.Frame, 1)
	m.pmu.Lock()
	if m.err != nil {
		err := m.err
		m.pmu.Unlock()
		return wire.Frame{}, err
	}
	m.pending[f.ID] = respCh
	m.pmu.Unlock()

	m.wmu.Lock()
	b, err := wire.AppendFrame(*m.batch, f)
	*m.batch = b
	m.wmu.Unlock()
	if err != nil {
		m.deregister(f.ID)
		return wire.Frame{}, err
	}
	select {
	case m.kick <- struct{}{}:
	default: // a flush signal is already pending
	}

	select {
	case resp, ok := <-respCh:
		if !ok {
			return wire.Frame{}, m.lastErr()
		}
		return resp, nil
	case <-ctx.Done():
		m.deregister(f.ID)
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

func (m *muxConn) deregister(id uint64) {
	m.pmu.Lock()
	delete(m.pending, id)
	m.pmu.Unlock()
}

// writeLoop flushes the forming batch whenever kicked: it swaps in a
// fresh pooled buffer under wmu (so enqueues never wait on the network)
// and writes the sealed batch with one syscall. Batching is purely
// natural — everything enqueued during the previous flush goes out
// together; the writer never waits for a deeper batch (the batching
// variants measured inside noise: ROADMAP, "Measured and deliberately
// not built").
func (m *muxConn) writeLoop() {
	for {
		select {
		case <-m.done:
			return
		case <-m.kick:
		}
		for {
			m.wmu.Lock()
			if len(*m.batch) == 0 {
				m.wmu.Unlock()
				break
			}
			sealed := m.batch
			m.batch = wire.GetBuf()
			m.wmu.Unlock()
			_, err := m.conn.Write(*sealed)
			wire.PutBuf(sealed)
			if err != nil {
				m.fail(err)
				return
			}
		}
	}
}

// readLoop routes response frames to their waiters by ID. A frame with
// no waiter belonged to a context-canceled request and is dropped —
// unlike the one-request-per-connection transport, an unknown ID here is
// expected traffic, not desynchronization. The reader is buffered: the
// server answers in batches, so one kernel read pulls many frames —
// without this, reading costs two syscalls per frame and eats the
// batching win on the write side.
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
		return nil, &dialError{err}
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

// attemptMux is the pipelined counterpart of attempt: one request over
// the endpoint's shared mux instead of a dedicated pooled connection.
func (c *Client) attemptMux(ctx context.Context, ep *endpoint, op wire.Op, payload []byte) (wire.Frame, error) {
	m, err := c.getMux(ep)
	if err != nil {
		return wire.Frame{}, err
	}
	id := c.nextID.Add(1)
	return m.roundTrip(ctx, wire.Frame{Kind: byte(op), ID: id, Payload: payload})
}
