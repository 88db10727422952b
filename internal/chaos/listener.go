// Network fault injection: a listener that wraps a server's own and
// breaks the connections it accepts the way real networks do — severing
// them mid-request and tearing frames so a prefix of the bytes arrives
// and the rest never does. Faults draw from the same seeded PCG streams
// as the pager harness, so a (seed, connection ordinal) pair replays the
// identical fault schedule on every run. Serve a server on it
// (server.Serve) and every client that dials the server's address rides
// the faulted connections; there is no relay in between.
//
// The listener knows nothing about the frame format on purpose: it cuts
// at byte granularity, in both directions, which subsumes every
// protocol-level tear (mid-header, mid-payload, between checksum and
// payload). The wire package's torn-frame tests prove any cut decodes to
// a typed error; the fault listener's tests prove the full client/server
// stack survives those cuts under load.
package chaos

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"

	"xbench/internal/stats"
)

// FaultConfig is the fault schedule of a FaultListener. Each rate is a
// per-chunk probability (one Read or one Write of a connection); 0 means
// none.
type FaultConfig struct {
	// Seed drives the fault streams; each accepted connection draws from
	// its own, stats.NewRNG(Seed).Split(ordinal), ordinals counting from 1.
	Seed uint64
	// DropRate is the probability the connection is severed before the
	// chunk passes.
	DropRate float64
	// TearRate is the probability only a prefix of the chunk passes
	// before the connection is severed.
	TearRate float64
}

// errFault is what a faulted Read or Write returns, after closing the
// connection.
var errFault = errors.New("chaos: connection severed by a fault")

// FaultListener is a net.Listener whose accepted connections fault on
// the schedule of its FaultConfig.
type FaultListener struct {
	net.Listener
	cfg FaultConfig

	accepted atomic.Uint64
	drops    atomic.Int64
	tears    atomic.Int64
	healed   atomic.Bool
	hold     atomic.Pointer[hold]
}

// hold stalls the connections accepted before it: ordinals up to upTo.
type hold struct {
	upTo    uint64
	release chan struct{} // closed by Release
}

// NewFaultListener wraps ln; closing the FaultListener closes ln.
func NewFaultListener(ln net.Listener, cfg FaultConfig) *FaultListener {
	return &FaultListener{Listener: ln, cfg: cfg}
}

// Accept returns the next connection, under its own fault stream.
func (l *FaultListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	n := l.accepted.Add(1)
	rng := stats.NewRNG(l.cfg.Seed).Split(n)
	return &faultConn{Conn: conn, l: l, ordinal: n, rng: rng, closed: make(chan struct{})}, nil
}

// Faults reports how many chunks the listener has severed so far, split
// by kind.
func (l *FaultListener) Faults() (drops, tears int64) {
	return l.drops.Load(), l.tears.Load()
}

// Heal ends the faults: from now on every connection, open or new,
// carries its bytes intact.
func (l *FaultListener) Heal() { l.healed.Store(true) }

// Hold stalls every connection accepted so far until Release: a Read
// hands over nothing the peer sent and a Write sends nothing until then,
// and no byte is lost. Connections accepted later are not held. Closing
// a held connection ends its hold.
func (l *FaultListener) Hold() {
	l.hold.Store(&hold{upTo: l.accepted.Load(), release: make(chan struct{})})
}

// Release ends a Hold; what the held connections carry flows again.
func (l *FaultListener) Release() {
	if h := l.hold.Swap(nil); h != nil {
		close(h.release)
	}
}

// faultConn is one accepted connection and its fault stream. The
// server reads and writes it from different goroutines, so mu guards rng.
type faultConn struct {
	net.Conn
	l       *FaultListener
	ordinal uint64

	mu  sync.Mutex
	rng *stats.RNG

	closeOnce sync.Once
	closed    chan struct{}
}

// wait blocks while a Hold covers the connection.
func (c *faultConn) wait() error {
	h := c.l.hold.Load()
	if h == nil || c.ordinal > h.upTo {
		return nil
	}
	select {
	case <-h.release:
		return nil
	case <-c.closed:
		return net.ErrClosed
	}
}

// cut rolls the fault stream for a chunk of n > 0 bytes: how many of
// them pass before the connection is severed, or -1 for all of them and
// no fault. A tear passes at least one byte and loses at least one; a
// one-byte chunk cannot tear, and drops.
func (c *faultConn) cut(n int) int {
	if c.l.healed.Load() {
		return -1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	roll := c.rng.Float64()
	cut := -1
	switch {
	case roll < c.l.cfg.DropRate:
		cut = 0
	case roll < c.l.cfg.DropRate+c.l.cfg.TearRate:
		cut = min(1+int(c.rng.Uint64()%uint64(n)), n-1)
	}
	switch {
	case cut == 0:
		c.l.drops.Add(1)
	case cut > 0:
		c.l.tears.Add(1)
	}
	return cut
}

// Read hands over what the peer sent, unless a hold stalls it or a fault
// severs the connection first; after a tear the next Read fails.
func (c *faultConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if werr := c.wait(); werr != nil {
		return 0, werr
	}
	if n > 0 {
		if cut := c.cut(n); cut >= 0 {
			c.Close()
			if cut == 0 {
				return 0, errFault
			}
			return cut, nil
		}
	}
	return n, err
}

// Write sends b, unless a hold stalls it or a fault severs the
// connection first, after a prefix of b for a tear.
func (c *faultConn) Write(b []byte) (int, error) {
	if err := c.wait(); err != nil {
		return 0, err
	}
	if len(b) > 0 {
		if cut := c.cut(len(b)); cut >= 0 {
			n, _ := c.Conn.Write(b[:cut]) // the connection closes either way
			c.Close()
			return n, errFault
		}
	}
	return c.Conn.Write(b)
}

// Close closes the real connection, so the peer sees the fault, and ends
// a hold on it.
func (c *faultConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}
