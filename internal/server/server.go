// Package server is the network serving layer: it exposes any
// core.Engine over the wire protocol of internal/wire, so the benchmark's
// measurements can include the client/server path — connection handling,
// admission control, per-request timeouts — instead of stopping at
// library calls.
//
// Architecture: one accept loop, one read goroutine per connection, and
// per connection a bounded set of worker goroutines its reader hands
// frames to (connWorker): a worker outlives its request and serves the
// connection's next one, so the stack an engine call needs is grown once
// per worker, not once per request. A connection's requests execute
// concurrently and its responses — matched to requests by frame ID, so
// they may return in any order — are written by the worker that built
// each one, with one conn.Write under the connection's write mutex. That
// is what the client's multiplexed transport (internal/client, mux.go)
// relies on: a connection carrying many in-flight requests is served by
// many engine goroutines, not a serial loop. A one-request-at-a-time
// peer (a raw test connection) sees one frame in, one frame out, on one
// worker. Every
// engine-touching request passes the admission controller: a semaphore
// of MaxInflight slots with a bounded queue wait. A request that cannot
// get a slot within QueueWait is rejected with StatusOverloaded — load
// shedding, never queue collapse.
// The per-connection worker cap (connPipeline) additionally stops any
// single connection from parking unbounded goroutines in the admission
// queue: with every worker busy the server simply stops reading and TCP
// backpressure does the rest.
//
// Graceful drain (Shutdown): stop accepting connections, reject new
// requests with StatusShutdown, let in-flight requests finish and their
// responses flush, then close the connections and finally the engine.
// The drain barrier is the semaphore itself: Shutdown acquires every
// slot, which can only succeed once no request holds one.
//
// A read replica (Config.ReplicaOf, DESIGN.md §16) is a server whose
// journal lives on its primary: it turns writes away, and its puller
// (replicate) applies the primary's durable journal in commit order. A
// pull at the durable end parks until the next sync, so a replica lags
// by one round trip plus one apply; it can lag, never fork.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"xbench/internal/client"
	"xbench/internal/core"
	"xbench/internal/metrics"
	"xbench/internal/updatelog"
	"xbench/internal/wire"
)

// Config controls one server.
type Config struct {
	// Addr is the TCP address Start listens on; empty selects
	// "127.0.0.1:0" (loopback, kernel-assigned port — read it back from
	// Addr()). Serve ignores it.
	Addr string
	// MaxInflight caps concurrently executing engine requests (the
	// admission semaphore size); <= 0 selects 64.
	MaxInflight int
	// QueueWait bounds how long a request may wait for an admission slot
	// before it is rejected with StatusOverloaded; <= 0 selects 100ms.
	QueueWait time.Duration
	// RequestTimeout caps the server-side execution time of one request;
	// <= 0 selects 30s. A tighter client deadline, carried in the request
	// payload, wins.
	RequestTimeout time.Duration
	// ReplicaOf makes the server a read replica of the primary at this
	// address: updates are rejected with core.ErrReadOnly, and Serve
	// begins applying the primary's journal to the engine, which must
	// hold its base database already. Once that stops (ReplicaErr),
	// queries and explains are refused with wire.ErrShutdown.
	ReplicaOf string
}

// withDefaults resolves zero-value fields.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	return c
}

// Server serves one engine over TCP.
type Server struct {
	cfg Config
	eng core.Engine

	ln   net.Listener
	sem  chan struct{} // admission semaphore, cap MaxInflight
	done chan struct{} // closed when drain begins
	// releaseFn is s.release, bound once in New: handle returns it for
	// every admitted request, and a method value allocates each time it
	// is taken.
	releaseFn func()

	reg *metrics.Registry
	// hOp holds the "wire.<op>" service-time histogram of every op, by
	// op code.
	hOp        [wire.NumOps]*metrics.Histogram
	cAccepted  *metrics.Counter // server.conn.accepted
	cActive    *metrics.Counter // server.conn.active (level)
	rAdmitted  *metrics.Counter // server.req.admitted
	rRejected  *metrics.Counter // server.req.rejected (overload + shutdown)
	rInflight  *metrics.Counter // server.req.inflight (level)
	rDeduped   *metrics.Counter // server.req.deduped (idempotent replays)
	drainState atomic.Bool

	// Exactly-once update machinery: dedup answers retries with the
	// original result; journal (optional, see Reopen) makes acknowledged
	// updates durable across process death; updMu serializes updates
	// from the dedup lookup to the dedup record, so journal order is
	// apply order (executeUpdate).
	dedup   *dedupTable
	journal *updatelog.FileLog
	updMu   sync.Mutex

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	connWg sync.WaitGroup

	// A replica's puller: stopPull cancels and joins it. halted is closed
	// once haltErr, what stopped it, is set.
	stopPull func()
	applied  atomic.Uint64
	halted   chan struct{}
	haltErr  error

	closeOnce sync.Once
	closeErr  error
}

// New wraps an engine in a server. The engine must already hold its
// database: no op loads one over the wire. The server owns the engine
// from here on: Shutdown/Close close it.
func New(e core.Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		eng:    e,
		sem:    make(chan struct{}, cfg.MaxInflight),
		done:   make(chan struct{}),
		halted: make(chan struct{}),
		reg:    metrics.NewRegistry(),
		conns:  map[net.Conn]struct{}{},
		dedup:  newDedupTable(),
	}
	s.releaseFn = s.release
	s.cAccepted = s.reg.Counter("server.conn.accepted")
	s.cActive = s.reg.Counter("server.conn.active")
	s.rAdmitted = s.reg.Counter("server.req.admitted")
	s.rRejected = s.reg.Counter("server.req.rejected")
	s.rInflight = s.reg.Counter("server.req.inflight")
	s.rDeduped = s.reg.Counter("server.req.deduped")
	for op := wire.OpPing; op < wire.NumOps; op++ {
		s.hOp[op] = s.reg.Histogram("wire." + op.String())
	}
	return s
}

// Reopen is the crash-recovery constructor: it opens (or creates) the
// durable update journal at journalPath, loads db into the engine, re-
// applies the journal's committed updates in commit order, rebuilds the
// Table 3 indexes, and seeds the idempotency dedup table from the
// records' keys — all BEFORE the server exists to accept a connection. A
// client retrying an update it never got an answer for therefore finds
// either the original outcome (the update committed before the crash: dedup hit,
// no re-apply) or a clean miss (it never committed: the retry applies it
// once). The returned server journals every subsequent acknowledged
// update to the same file, so the next Reopen sees those too.
//
// On a fresh journal (no file, or no committed records) Reopen degrades
// to plain load + index + New — `xbench serve --journal=...` uses it
// unconditionally for both first start and restart.
func Reopen(e core.Engine, db *core.Database, specs []core.IndexSpec, journalPath string, cfg Config) (*Server, int, error) {
	if cfg.ReplicaOf != "" {
		return nil, 0, errors.New("server: a replica replays its primary's journal, not one of its own")
	}
	jl, recs, err := updatelog.OpenFile(journalPath)
	if err != nil {
		return nil, 0, err
	}
	ctx := context.Background()
	if _, err := e.Load(ctx, db); err != nil {
		jl.Close()
		return nil, 0, fmt.Errorf("server: reopen load: %w", err)
	}
	if err := updatelog.Replay(ctx, e, recs); err != nil {
		jl.Close()
		return nil, 0, fmt.Errorf("server: reopen replay: %w", err)
	}
	if err := e.BuildIndexes(specs); err != nil {
		jl.Close()
		return nil, 0, fmt.Errorf("server: reopen index rebuild: %w", err)
	}
	s := New(e, cfg)
	s.journal = jl
	for _, r := range recs {
		s.dedup.record(wire.IdemKey{Client: r.Client, Seq: r.Seq})
	}
	return s, len(recs), nil
}

// Start binds Config.Addr and serves it (Serve). It returns once the
// socket is bound; Addr() then reports the bound address (useful with
// port 0).
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	return s.Serve(ln)
}

// Serve launches the accept loop on ln and returns; the server owns ln
// from here on, and Shutdown closes it. A replica also dials its primary
// and starts its puller; if that dial fails, Serve closes ln and returns
// the error. Tests serve on a wrapped listener, such as internal/chaos's
// fault listener.
func (s *Server) Serve(ln net.Listener) error {
	if s.cfg.ReplicaOf != "" {
		// One pull at a time: one connection carries them all.
		src, err := client.Dial(s.cfg.ReplicaOf, client.Config{MuxConns: 1})
		if err != nil {
			ln.Close()
			return fmt.Errorf("server: replica dial primary: %w", err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		stopped := make(chan struct{})
		go func() {
			defer close(stopped)
			if err := s.replicate(ctx, src); err != nil && ctx.Err() == nil {
				s.haltErr = err
				close(s.halted)
			}
		}()
		s.stopPull = func() { cancel(); src.Close(); <-stopped }
	}
	s.ln = ln
	s.connWg.Add(1)
	go s.acceptLoop()
	return nil
}

// pullBackoff is a replica's wait after a failed pull: a restarting
// primary or an open breaker is not worth spinning on.
const pullBackoff = 100 * time.Millisecond

// replicate is a replica's shipping loop: pull past the last record
// applied, check the window with the journal's own decoder, apply its
// records, repeat (a caught-up pull has already waited at the primary for
// the next sync). It halts, with ReplicaErr set, on a window that does
// not decode whole (nothing of it is applied), on a primary that refuses
// its position (it came back on another journal), and on an apply error:
// going on would fork the replica from its primary silently.
func (s *Server) replicate(ctx context.Context, src *client.Client) error {
	var at wire.JournalPullRequest // just past the last record applied
	for {
		window, err := src.JournalPull(ctx, at)
		switch {
		case ctx.Err() != nil || errors.Is(err, client.ErrClosed):
			return nil
		case err == nil && len(window) > 0:
			recs, n := updatelog.Decode(window)
			if n < len(window) {
				return fmt.Errorf("server: replica: journal window at offset %d is damaged after %d of its %d bytes", at.Since, n, len(window))
			}
			for _, rec := range recs {
				if err := updatelog.Replay(ctx, s.eng, []updatelog.Record{rec}); err != nil {
					return fmt.Errorf("server: replica apply record %d: %w", s.applied.Load(), err)
				}
				s.applied.Add(1)
			}
			at = wire.JournalPullRequest{Since: at.Since + uint64(n), Prev: recs[len(recs)-1].Sum()}
			continue
		case err == nil:
			continue // caught up after the primary's hold
		case errors.Is(err, wire.ErrBadRequest):
			return fmt.Errorf("server: replica at journal offset %d: %w", at.Since, err)
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(pullBackoff):
		}
	}
}

// Applied returns how many journal records a replica has applied.
func (s *Server) Applied() uint64 { return s.applied.Load() }

// ReplicaErr returns what halted a replica's journal puller (a damaged
// window, a refused position or an apply failure), or nil while shipping
// is healthy. A halted replica refuses every query and explain.
func (s *Server) ReplicaErr() error {
	select {
	case <-s.halted:
		return s.haltErr
	default:
		return nil
	}
}

// Halted is closed when a replica's journal puller halts; ReplicaErr then
// names the cause. It is never closed on a primary, on a replica whose
// shipping is healthy, or by Shutdown or Close stopping the puller.
func (s *Server) Halted() <-chan struct{} { return s.halted }

// Addr returns the bound listen address (nil before Start or Serve).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Metrics returns the server's registry: the counters named on Server's
// fields and the wire.<op> service-time histograms.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Inflight returns the number of requests currently holding an admission
// slot. It is the invariant chaos tests assert returns to zero: every
// admitted request releases its slot on every path.
func (s *Server) Inflight() int64 { return s.rInflight.Value() }

func (s *Server) acceptLoop() {
	defer s.connWg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed (drain or Close)
		}
		s.mu.Lock()
		if s.drainState.Load() {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.cAccepted.Inc()
		s.cActive.Add(1)
		s.connWg.Add(1)
		go s.serveConn(conn)
	}
}

// dropConn unregisters and closes a connection.
func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
	s.cActive.Add(-1)
}

// connPipeline caps how many of one connection's requests may be in
// flight at once: it is the most workers serveConn starts. With all of
// them busy serveConn stops reading frames, letting TCP backpressure pace
// the client; the server-wide admission semaphore still governs how many
// of those requests execute.
const connPipeline = 128

// serveConn reads one connection's requests until the peer hangs up, a
// framing error poisons the stream, or drain closes the socket underneath
// a blocked read. It hands each frame to one of the connection's workers
// (connWorker): to one parked waiting for work when there is one, to a
// new one while fewer than connPipeline exist, and otherwise to the first
// that finishes. A pipelined client's requests therefore run concurrently
// and their responses return in completion order, routed by frame ID.
// Workers live as long as the connection — a burst leaves its workers
// parked, each holding the stack its last request grew (the runtime
// halves an idle one per GC cycle) — and all have exited when serveConn
// returns.
func (s *Server) serveConn(conn net.Conn) {
	defer s.connWg.Done()
	defer s.dropConn(conn)
	out := &connOut{conn: conn}
	// Unbuffered: a send completes only into a worker that is receiving,
	// so a frame is never queued behind a busy one.
	work := make(chan wire.Frame)
	var wg sync.WaitGroup
	defer wg.Wait() // workers must not outlive engine shutdown
	defer close(work)
	// Buffered reads: a pipelined client flushes requests in batches, so
	// one kernel read pulls many frames instead of two syscalls per frame.
	br := bufio.NewReader(conn)
	workers := 0
	for {
		req, err := wire.ReadFrame(br)
		if err != nil {
			// Clean EOF, torn frame, checksum failure, or the socket was
			// closed by drain: all terminal. A framing error cannot be
			// answered — the request id is unreliable — so the connection
			// is dropped and the client's read fails typed.
			return
		}
		select {
		case work <- req:
			continue
		default:
		}
		if workers < connPipeline {
			workers++
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.connWorker(out, work)
			}()
		}
		work <- req
	}
}

// connOut is a connection's response side: each worker writes its own
// response frame, encoded into buf and handed to the kernel with one
// conn.Write under mu, so frames never interleave.
type connOut struct {
	conn net.Conn
	mu   sync.Mutex
	buf  []byte
}

// write encodes f and writes it, returning once the kernel has the bytes
// or the write failed. A failure — a dead peer, or a frame too large to
// encode — closes the connection: the stream can no longer carry
// responses, so the read loop exits and the client's pending reads fail
// typed.
func (o *connOut) write(f wire.Frame) {
	o.mu.Lock()
	defer o.mu.Unlock()
	b, err := wire.AppendFrame(o.buf[:0], f)
	if err == nil {
		_, err = o.conn.Write(b)
	}
	if err != nil {
		o.conn.Close()
	}
	if cap(b) <= wire.MaxKeptBuf {
		o.buf = b
	}
}

// connWorker serves one connection's requests, one at a time, until
// serveConn closes work. Query results are encoded into the worker's own
// scratch buffer, reused from one request to the next: write copies the
// frame out before the next request overwrites it. The REQUEST payload is
// never reused: decoded requests alias it (wire dec.bytes).
func (s *Server) connWorker(out *connOut, work <-chan wire.Frame) {
	var scratch []byte
	for req := range work {
		resp, done := s.handle(wire.Op(req.Kind), req.Payload, &scratch)
		resp.ID = req.ID
		out.write(resp)
		// The admission slot is released only after write returned, so
		// the drain barrier in Shutdown proves every admitted request's
		// response reached the kernel before connections are severed.
		done()
		if cap(scratch) > wire.MaxKeptBuf {
			scratch = nil
		}
	}
}

// admit acquires an admission slot, waiting at most QueueWait. It fails
// with ErrShutdown once drain began and ErrOverloaded when the wait
// deadline expires first. The wait, and its timer, exist only when every
// slot is taken.
func (s *Server) admit() error {
	select {
	case <-s.done:
		s.rRejected.Inc()
		return wire.ErrShutdown
	default:
	}
	select {
	case s.sem <- struct{}{}:
	default:
		t := time.NewTimer(s.cfg.QueueWait)
		defer t.Stop()
		select {
		case s.sem <- struct{}{}:
		case <-s.done:
			s.rRejected.Inc()
			return wire.ErrShutdown
		case <-t.C:
			s.rRejected.Inc()
			return wire.ErrOverloaded
		}
	}
	s.rAdmitted.Inc()
	s.rInflight.Add(1)
	return nil
}

// release returns an admission slot.
func (s *Server) release() {
	s.rInflight.Add(-1)
	<-s.sem
}

// reqCtx derives the per-request context: the server-side cap, tightened
// by the client's deadline when one rode in on the payload. It is
// deliberately not a child of the drain signal — in-flight requests run
// to completion during a graceful drain.
func (s *Server) reqCtx(clientTimeout time.Duration) (context.Context, context.CancelFunc) {
	t := s.cfg.RequestTimeout
	if clientTimeout > 0 && clientTimeout < t {
		t = clientTimeout
	}
	return context.WithTimeout(context.Background(), t)
}

// noRelease is the done callback for requests that never held a slot.
func noRelease() {}

// handle dispatches one request to the engine and builds the response
// frame (ID is filled in by the caller). The returned done callback must
// be invoked after the response is written: admitted requests hold their
// admission slot until then. scratch is a buffer owned by the caller that
// query results and plans are encoded into; the response frame aliases
// it until written.
func (s *Server) handle(op wire.Op, payload []byte, scratch *[]byte) (wire.Frame, func()) {
	// Liveness and cheap reads skip admission: they must answer even on a
	// saturated server, or monitoring would be the first casualty.
	switch op {
	case wire.OpPing:
		return okFrame([]byte(s.eng.Name())), noRelease
	case wire.OpPageIO:
		return okFrame(wire.EncodeInt64(s.eng.PageIO())), noRelease
	case wire.OpSupports:
		c, sz, err := wire.DecodeClassSize(payload)
		if err != nil {
			return badRequest(err), noRelease
		}
		return errFrame(s.eng.Supports(c, sz)), noRelease
	case wire.OpJournal:
		return s.pullJournal(payload)
	}

	if err := s.admit(); err != nil {
		return errFrame(err), noRelease
	}
	start := time.Now()
	f := s.execute(op, payload, scratch)
	if op < wire.NumOps { // an unknown op was answered StatusBadRequest; it has no histogram
		s.hOp[op].Observe(time.Since(start))
	}
	return f, s.releaseFn
}

// execute runs an admitted request against the engine. A replica whose
// puller halted refuses reads before they run: its engine is frozen at
// the last record applied, a state its primary has left. The refusal is
// StatusShutdown, which a failover client retries on the shard's next
// member.
func (s *Server) execute(op wire.Op, payload []byte, scratch *[]byte) wire.Frame {
	if op == wire.OpQuery || op == wire.OpExplain {
		if err := s.ReplicaErr(); err != nil {
			return errFrame(fmt.Errorf("server: replica halted (%v): %w", err, wire.ErrShutdown))
		}
	}
	switch op {
	case wire.OpQuery:
		req, err := wire.DecodeQueryRequest(payload)
		if err != nil {
			return badRequest(err)
		}
		ctx, cancel := s.reqCtx(req.Timeout)
		defer cancel()
		res, err := s.eng.Execute(ctx, req.Query, req.Params)
		if err != nil {
			return errFrame(err)
		}
		*scratch = wire.AppendResult((*scratch)[:0], res)
		return okFrame(*scratch)

	case wire.OpExplain:
		req, err := wire.DecodeQueryRequest(payload)
		if err != nil {
			return badRequest(err)
		}
		ctx, cancel := s.reqCtx(req.Timeout)
		defer cancel()
		node, err := core.Explain(ctx, s.eng, req.Query, req.Params)
		if err != nil {
			return errFrame(err)
		}
		*scratch = wire.AppendPlanNode((*scratch)[:0], node)
		return okFrame(*scratch)

	case wire.OpColdReset:
		s.eng.ColdReset()
		return okFrame(nil)

	case wire.OpUpdate:
		if s.cfg.ReplicaOf != "" {
			return errFrame(fmt.Errorf("server: replica: %w", core.ErrReadOnly))
		}
		timeout, b, err := wire.DecodeUpdate(payload)
		if err != nil {
			return badRequest(err)
		}
		return s.executeUpdate(b, timeout)

	default:
		return badRequest(fmt.Errorf("unknown op %d", byte(op)))
	}
}

// journalWindow caps the bytes of one OpJournal window: a replica far
// behind catches up in windows of whole records instead of one giant
// frame, however long the journal has grown.
const journalWindow = 1 << 20

// journalHold is the longest a pull at the durable end parks for the
// next sync (capped by RequestTimeout); then it answers the empty window.
const journalHold = 500 * time.Millisecond

// pullJournal answers one OpJournal window by reading it back from the
// journal file, which shows committed (fsynced) records only: a replica
// must never apply a record a primary crash could still take back. A
// pull at the durable end parks until the next sync, the drain or
// journalHold, then reads once more; it holds no admission slot while
// parked, so waiting replicas never crowd out the updates they wait on.
// A server without a journal, or a journal that does not hold the
// position (another history), answers StatusBadRequest
// (wire.ErrBadRequest).
func (s *Server) pullJournal(payload []byte) (wire.Frame, func()) {
	req, err := wire.DecodeJournalPullRequest(payload)
	if err != nil {
		return badRequest(err), noRelease
	}
	if s.journal == nil {
		return badRequest(errors.New("server: no journal attached (start with --journal to ship one)")), noRelease
	}
	for parked := false; ; parked = true {
		if err := s.admit(); err != nil {
			return errFrame(err), noRelease
		}
		start := time.Now()
		synced := s.journal.Synced()
		window, err := s.journal.Read(req.Since, req.Prev, journalWindow)
		if err == nil && len(window) == 0 && !parked {
			s.release()
			hold := time.NewTimer(min(journalHold, s.cfg.RequestTimeout))
			select {
			case <-synced:
			case <-s.done:
			case <-hold.C:
			}
			hold.Stop()
			continue
		}
		s.hOp[wire.OpJournal].Observe(time.Since(start))
		switch {
		case errors.Is(err, updatelog.ErrPosition):
			return badRequest(err), s.releaseFn
		case err != nil:
			return errFrame(err), s.releaseFn
		}
		return okFrame(window), s.releaseFn
	}
}

// errNoKey refuses an update whose record carries the zero key.
var errNoKey = errors.New("server: update without an idempotency key")

// executeUpdate runs one update, enc, its record's encoding, with
// exactly-once semantics. A record that does not decode as exactly one
// intact record, or carries the zero key, is a bad request. A retry whose
// original succeeded gets the original response without touching the
// engine; a fresh update applies, its record is journaled, and its key is
// remembered in the dedup table.
//
// updMu is held across the three steps — the dedup lookup, the engine
// call, the dedup record — so journal order is apply order and a retry
// racing its original finds the key recorded once the original returns.
// There is one commit point: the append of enc to the journal and its
// sync are the update's durable step, Apply's argument, which the engine
// runs inside its commit, after the apply and before any reader can see
// the update. A failed append therefore stops the engine with the update
// invisible, and no acknowledgment is released before its record is on
// disk. The journal holds the very bytes the client sent, which DecodeOne
// checked. rec, key included, goes to the engine as it arrived: when the
// engine is itself a wire client or a router (a front-end forwarding to
// a shard), the shard dedups on the original client's identity.
//
// Only successes are remembered and journaled: the engines' update
// protocol is exactly-old-or-new, so an error return means the update did
// not happen and a retry is safe to re-execute (a deterministic failure
// simply fails the same way again). A journaled server whose engine
// returned nil without running the step answers an internal error: the
// journal never misses an acknowledged update.
func (s *Server) executeUpdate(enc []byte, timeout time.Duration) wire.Frame {
	rec, err := updatelog.DecodeOne(enc)
	if err != nil {
		return badRequest(err)
	}
	if rec.Client == 0 {
		return badRequest(errNoKey)
	}
	ctx, cancel := s.reqCtx(timeout)
	defer cancel()
	var durable func() error
	journaled := false
	if s.journal != nil {
		durable = func() error {
			journaled = true
			return s.journal.Append(enc)
		}
	}

	key := wire.IdemKey{Client: rec.Client, Seq: rec.Seq}
	s.updMu.Lock()
	defer s.updMu.Unlock()
	if s.dedup.lookup(key) {
		s.rDeduped.Inc()
		return okFrame(nil)
	}
	err = updatelog.Apply(ctx, s.eng, rec, durable)
	if err == nil && s.journal != nil && !journaled {
		err = errors.New("server: the engine ran no durable step: the update is not journaled")
	}
	if err == nil {
		s.dedup.record(key)
	}
	return errFrame(err)
}

func okFrame(payload []byte) wire.Frame {
	return wire.Frame{Kind: byte(wire.StatusOK), Payload: payload}
}

// errFrame maps an engine error (or nil) onto a response frame.
func errFrame(err error) wire.Frame {
	if err == nil {
		return okFrame(nil)
	}
	return wire.Frame{Kind: byte(wire.StatusFor(err)), Payload: []byte(err.Error())}
}

func badRequest(err error) wire.Frame {
	return wire.Frame{Kind: byte(wire.StatusBadRequest), Payload: []byte(err.Error())}
}

// Shutdown drains the server gracefully: stop accepting, reject new
// requests, wait (bounded by ctx) for in-flight requests to finish and
// flush their responses, then close connections, stop a replica's
// journal puller and close the engine. A replica whose puller halted
// returns what halted it too. It is what the serve command runs on
// SIGTERM. Safe to call once; later calls
// and Close after Shutdown are no-ops returning the first result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() { s.closeErr = s.shutdown(ctx) })
	return s.closeErr
}

func (s *Server) shutdown(ctx context.Context) error {
	s.drainState.Store(true)
	close(s.done) // new admissions now fail with ErrShutdown
	if s.ln != nil {
		s.ln.Close() // stop accepting
	}

	// Drain barrier: acquiring every semaphore slot proves no request is
	// in flight — and, because a worker releases its slot (done) only
	// after the write of its response returned, that responses for
	// everything admitted have been handed to the kernel.
	drained := true
	for i := 0; i < s.cfg.MaxInflight; i++ {
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			drained = false
		}
		if !drained {
			break
		}
	}

	// In-flight responses are flushed (or the drain deadline expired):
	// sever the connections so blocked reads return, and wait for the
	// handlers to exit before closing the engine under them.
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.connWg.Wait()

	if s.stopPull != nil {
		s.stopPull()
	}
	err := errors.Join(s.ReplicaErr(), s.eng.Close())
	if s.journal != nil {
		err = errors.Join(err, s.journal.Close())
	}
	if !drained {
		return errors.Join(fmt.Errorf("server: drain deadline expired with %d requests in flight", s.Inflight()), err)
	}
	return err
}

// Close shuts the server down with a short drain (1s): in-flight
// requests get a brief chance to finish, then everything is severed.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

var _ io.Closer = (*Server)(nil)
