// Package client is the remote side of the network serving layer: a
// multiplexing, retrying, failing-over TCP client for internal/server
// that satisfies core.Engine, so every existing harness — the closed-loop
// driver, the update workload, the verify command — runs unchanged over
// the wire. Point the driver at a Client instead of a local engine and
// the p50/p95/p99 cells include connection handling, framing and
// admission control.
//
// Transport: concurrent requests share Config.MuxConns connections per
// address (mux.go). Each caller writes its own frame under the
// connection's write lock and its response routes back by frame ID, so
// an N-client sweep does not pay a connection per request; the server's
// admission controller, not the connection count, is the load limiter.
//
// Exactly-once updates: every update (U1–U3) is one updatelog.Record,
// sent through Apply, and carries an idempotency key — the client's
// random 64-bit identity plus a per-client sequence number — minted once
// per logical operation (or kept, when the record arrives with one) and
// re-sent verbatim on every retry leg. The server's dedup table (rebuilt
// from its durable journal across restarts) recognizes the key and
// answers a retry with the original outcome instead of re-applying, which
// is what makes updates safe to retry at all: a lost response no longer
// forces the client to choose between surfacing a spurious error and
// double-applying.
//
// Retry: every op is idempotent — queries, pings and cache drops by
// nature, updates thanks to their idempotency keys — so one rule covers
// them all. A dial error or an I/O error mid-request is retried, and so
// are StatusOverloaded and StatusShutdown, pre-execution rejections
// (overload is backpressure, so the backoff is the polite response;
// shutdown steers the retry to another address).
// Backoff doubles per attempt with seeded jitter drawn from the same
// PCG32 generator family as the driver's per-client streams, so
// concurrent clients never synchronize their retry storms yet tests
// replay deterministically.
//
// Failover: the client holds an ordered address list (DialAddrs). Each
// address owns a circuit breaker (breaker.go) that opens after
// Config.FailThreshold consecutive transport errors and admits a single
// half-open probe after Config.Cooldown. Requests prefer the first
// address whose breaker admits them, so traffic drains away from a dead
// or draining server within one threshold's worth of failures and
// returns after one successful probe. When every breaker is open the
// client forces the least-recently-condemned address rather than
// failing — a fully-partitioned client keeps probing, it never locks
// itself out.
package client

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xbench/internal/core"
	"xbench/internal/stats"
	"xbench/internal/updatelog"
	"xbench/internal/wire"
)

// Config controls a client.
type Config struct {
	// DialTimeout bounds one TCP dial; <= 0 selects 2s.
	DialTimeout time.Duration
	// Retries is the number of additional attempts after a transient
	// failure; < 0 disables retry, 0 selects 3.
	Retries int
	// Backoff is the first retry delay, doubling per attempt with seeded
	// jitter in [0.5x, 1.5x); <= 0 selects 10ms.
	Backoff time.Duration
	// MaxBackoff caps the doubling, so a large retry budget (riding out a
	// server restart) polls steadily instead of sleeping for minutes;
	// <= 0 selects 500ms.
	MaxBackoff time.Duration
	// FailThreshold is the number of consecutive transport errors that
	// opens an address's circuit breaker; <= 0 selects 3.
	FailThreshold int
	// Cooldown is how long an open breaker blocks an address before
	// admitting a half-open probe; <= 0 selects 500ms.
	Cooldown time.Duration
	// ClientID is the 64-bit identity stamped into update idempotency
	// keys; 0 draws a random one. Set it only for deterministic tests —
	// two live clients sharing an identity would dedup each other.
	ClientID uint64
	// Seed seeds the retry-jitter stream; 0 derives it from the client
	// identity, so concurrent clients de-synchronize by default while a
	// fixed (ClientID, Seed) pair replays exactly.
	Seed uint64
	// Pipeline is ignored: every client multiplexes. benchmarks/e2e's
	// stack.go is its only setter, and ROADMAP item 1 (b) deletes it.
	Pipeline bool
	// MuxConns is the number of multiplexed connections per address;
	// <= 0 selects 2.
	MuxConns int
}

func (c Config) withDefaults() Config {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	switch {
	case c.Retries < 0:
		c.Retries = 0
	case c.Retries == 0:
		c.Retries = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = 10 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 500 * time.Millisecond
	}
	if c.MaxBackoff < c.Backoff {
		c.MaxBackoff = c.Backoff
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 500 * time.Millisecond
	}
	if c.MuxConns <= 0 {
		c.MuxConns = 2
	}
	return c
}

// ErrClosed is returned by operations on a closed client.
var ErrClosed = errors.New("client: closed")

// endpoint is one server address with its multiplexed connections and
// circuit breaker. Guarded by Client.mu.
type endpoint struct {
	addr string
	brk  breaker

	// mux slots: dialed lazily, failed entries replaced in place;
	// muxNext round-robins requests across the live ones.
	// muxMu serializes dials (it is its own lock, never held with
	// Client.mu below it released) so a cold start or a mux death doesn't
	// stampede the server with one connection per concurrent caller.
	mux     []*muxConn
	muxNext int
	muxMu   sync.Mutex
}

// Client is a remote engine handle. It is safe for concurrent use; each
// in-flight request rides one of its address's multiplexed connections.
type Client struct {
	cfg  Config
	name string // remote engine name, fetched at Dial time
	id   uint64 // idempotency-key identity

	nextID atomic.Uint64
	seq    atomic.Uint64 // idempotency-key sequence

	// failovers counts requests answered by an endpoint other than the
	// preferred (first) address — each one is a read or update the breaker
	// machinery steered around a dead or draining server.
	failovers atomic.Uint64

	jmu    sync.Mutex
	jitter *stats.RNG

	mu     sync.Mutex
	eps    []*endpoint
	closed bool
}

// newClient builds an unconnected client (shared by Dial and tests).
func newClient(addrs []string, cfg Config) *Client {
	cfg = cfg.withDefaults()
	c := &Client{cfg: cfg, id: cfg.ClientID}
	for c.id == 0 {
		var b [8]byte
		if _, err := cryptorand.Read(b[:]); err != nil {
			panic("client: crypto/rand unavailable: " + err.Error())
		}
		c.id = binary.BigEndian.Uint64(b[:])
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = c.id
	}
	c.jitter = stats.NewRNG(seed)
	for _, a := range addrs {
		c.eps = append(c.eps, &endpoint{addr: a})
	}
	return c
}

// Dial connects to a server, verifies liveness with a ping, and caches
// the remote engine's name (Name() returns it verbatim, so reports keep
// the same engine labels in remote and in-process runs).
func Dial(addr string, cfg Config) (*Client, error) {
	return DialAddrs([]string{addr}, cfg)
}

// DialAddrs connects with a failover list: addrs are equivalent servers
// (typically replicas serving the same load), preferred in order. The
// liveness ping may be answered by any of them.
func DialAddrs(addrs []string, cfg Config) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("client: empty address list")
	}
	c := newClient(addrs, cfg)
	payload, err := c.roundTrip(context.Background(), wire.OpPing, nilPayload)
	if err != nil {
		return nil, fmt.Errorf("client: dial %v: %w", addrs, err)
	}
	c.name = string(payload)
	return c, nil
}

// nilPayload is the payload builder of body-less requests.
func nilPayload(dst []byte, _ time.Duration) []byte { return dst }

// Name returns the remote engine's name.
func (c *Client) Name() string { return c.name }

// Addr returns the primary (first) server address.
func (c *Client) Addr() string { return c.eps[0].addr }

// ClientID returns the identity stamped into this client's idempotency
// keys.
func (c *Client) ClientID() uint64 { return c.id }

// Failovers returns how many successful requests were answered by an
// endpoint other than the preferred (first) address.
func (c *Client) Failovers() uint64 { return c.failovers.Load() }

// pickEndpoint chooses the address for the next attempt: the first whose
// breaker admits traffic, or — when every breaker is open — the one whose
// cooldown expires soonest, forced, so the client always makes progress.
func (c *Client) pickEndpoint() (*endpoint, error) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	for _, ep := range c.eps {
		if ep.brk.allow(now) {
			return ep, nil
		}
	}
	forced := c.eps[0]
	for _, ep := range c.eps[1:] {
		if ep.brk.openUntil.Before(forced.brk.openUntil) {
			forced = ep
		}
	}
	return forced, nil
}

// epSuccess / epFailure feed the endpoint's breaker.
func (c *Client) epSuccess(ep *endpoint) {
	c.mu.Lock()
	ep.brk.success()
	c.mu.Unlock()
}

func (c *Client) epFailure(ep *endpoint) {
	c.mu.Lock()
	ep.brk.failure(time.Now(), c.cfg.FailThreshold, c.cfg.Cooldown)
	c.mu.Unlock()
}

// sleepBackoff waits one jittered backoff period (or until ctx fires).
// Jitter draws from the client's seeded PCG32 stream: uniform in
// [0.5x, 1.5x), so synchronized clients spread out instead of retrying in
// lockstep.
func (c *Client) sleepBackoff(ctx context.Context, backoff time.Duration) error {
	c.jmu.Lock()
	f := c.jitter.Float64()
	c.jmu.Unlock()
	d := backoff/2 + time.Duration(f*float64(backoff))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// roundTrip performs one request with failover and
// retry-with-backoff. build appends the payload of each attempt to the
// slice it is handed, the mux's write buffer, from the context's
// REMAINING deadline budget, so a retry leg carries the time actually
// left, not the budget the first leg saw. It returns the
// response payload of a StatusOK frame or the typed remote error.
// Transport errors and admission rejections (overload, shutdown) retry:
// every op is idempotent, and a rejection is pre-execution anyway.
// Engine errors are terminal.
func (c *Client) roundTrip(ctx context.Context, op wire.Op, build func(dst []byte, remaining time.Duration) []byte) ([]byte, error) {
	backoff := c.cfg.Backoff
	var lastErr error
	var lastAddr string
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ep, err := c.pickEndpoint()
		if err != nil {
			return nil, err
		}
		lastAddr = ep.addr
		remaining := timeoutOf(ctx)
		resp, err := c.attemptMux(ctx, ep, op, func(dst []byte) []byte { return build(dst, remaining) })
		switch {
		case err == nil && wire.Status(resp.Kind) == wire.StatusOK:
			c.epSuccess(ep)
			if ep != c.eps[0] {
				c.failovers.Add(1)
			}
			return resp.Payload, nil
		case err == nil:
			status := wire.Status(resp.Kind)
			lastErr = wire.DecodeError(status, resp.Payload)
			switch status {
			case wire.StatusOverloaded:
				// Backpressure from a healthy server: back off, retry.
				c.epSuccess(ep)
			case wire.StatusShutdown:
				// The server is draining away; steer the retry elsewhere.
				c.epFailure(ep)
			default:
				c.epSuccess(ep)
				return nil, lastErr
			}
		case errors.Is(err, ErrClosed):
			return nil, err
		case errors.Is(err, wire.ErrTooLarge):
			// The request cannot be encoded: no endpoint is at fault, and
			// no retry leg would encode it.
			return nil, err
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// The caller's context fired locally (while waiting on the
			// mux); not the endpoint's fault and not retryable.
			return nil, err
		default:
			c.epFailure(ep)
			lastErr = err
		}
		if attempt >= c.cfg.Retries {
			return nil, fmt.Errorf("client: %s %s: %w", op, lastAddr, lastErr)
		}
		if err := c.sleepBackoff(ctx, backoff); err != nil {
			return nil, err
		}
		if backoff *= 2; backoff > c.cfg.MaxBackoff {
			backoff = c.cfg.MaxBackoff
		}
	}
}

// timeoutOf extracts the remaining deadline budget of a context (0 when
// it has none) so the server can enforce it remotely.
func timeoutOf(ctx context.Context) time.Duration {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	t := time.Until(dl)
	if t <= 0 {
		return time.Nanosecond // already expired; let the server say so
	}
	return t
}

// Close releases the multiplexed connections. It closes the client
// handle only — the remote servers and their engines keep running (stop
// them with the server's Shutdown, not from a client).
func (c *Client) Close() error {
	c.mu.Lock()
	var muxes []*muxConn
	for _, ep := range c.eps {
		for _, m := range ep.mux {
			if m != nil {
				muxes = append(muxes, m)
			}
		}
		ep.mux = nil
	}
	c.closed = true
	c.mu.Unlock()
	for _, m := range muxes {
		m.fail(ErrClosed)
	}
	return nil
}

// --- core.Engine ---

// Supports asks the remote engine whether it hosts the combination.
func (c *Client) Supports(cl core.Class, s core.Size) error {
	payload := wire.EncodeClassSize(cl, s)
	_, err := c.roundTrip(context.Background(), wire.OpSupports, func(dst []byte, _ time.Duration) []byte { return append(dst, payload...) })
	return err
}

// Load refuses with core.ErrServed, without a round trip: the server's
// own process loaded its database, the only one a restart reproduces.
func (c *Client) Load(context.Context, *core.Database) (core.LoadStats, error) {
	return core.LoadStats{}, core.ErrServed
}

// BuildIndexes refuses with core.ErrServed, as Load does.
func (c *Client) BuildIndexes([]core.IndexSpec) error { return core.ErrServed }

// Execute runs one workload query remotely. The context's remaining
// deadline rides along on every retry leg and is enforced server-side at
// page-fetch granularity, exactly like an in-process engine.
func (c *Client) Execute(ctx context.Context, q core.QueryID, p core.Params) (core.Result, error) {
	// The request payload is encoded straight into the mux's write
	// buffer, again on each retry leg.
	resp, err := c.roundTrip(ctx, wire.OpQuery, func(dst []byte, remaining time.Duration) []byte {
		return wire.AppendQueryRequest(dst, wire.QueryRequest{Query: q, Params: p, Timeout: remaining})
	})
	if err != nil {
		return core.Result{}, err
	}
	return wire.DecodeResult(resp)
}

// Explain fetches the costed physical plan for one workload query from
// the remote engine, implementing core.Explainer over the wire. An engine
// that cannot explain answers StatusNoExplain, which decodes to
// core.ErrNoExplain.
func (c *Client) Explain(ctx context.Context, q core.QueryID, p core.Params) (*core.PlanNode, error) {
	resp, err := c.roundTrip(ctx, wire.OpExplain, func(dst []byte, remaining time.Duration) []byte {
		return wire.AppendQueryRequest(dst, wire.QueryRequest{Query: q, Params: p, Timeout: remaining})
	})
	if err != nil {
		return nil, err
	}
	return wire.DecodePlanNode(resp)
}

var _ core.Explainer = (*Client)(nil)

// ColdReset drops the remote engine's caches. Dropping them twice does
// what dropping them once does, so it retries like every other op.
func (c *Client) ColdReset() {
	// The Engine interface makes ColdReset infallible; a transport error
	// here surfaces on the next query instead.
	_, _ = c.roundTrip(context.Background(), wire.OpColdReset, nilPayload)
}

// PageIO reads the remote engine's cumulative page I/O counter (0 when
// the server is unreachable).
func (c *Client) PageIO() int64 {
	resp, err := c.roundTrip(context.Background(), wire.OpPageIO, nilPayload)
	if err != nil {
		return 0
	}
	v, err := wire.DecodeInt64(resp)
	if err != nil {
		return 0
	}
	return v
}

// Apply implements updatelog.Applier remotely, exactly once: rec is sent
// as it is, after each retry leg's timeout, so the server can dedup a
// retry whose original was applied but whose response was lost. A
// record without a key (rec.Client == 0) gets this client's identity and
// its next sequence number, minted once; a record that has one — a
// router's forwarding of an update it was sent — keeps it, so the shard
// dedups on the identity the original client acknowledged rather than
// on the forwarding hop's. durable is not run: a served update is made
// durable by its own server's journal, inside that server's commit.
func (c *Client) Apply(ctx context.Context, rec updatelog.Record, _ func() error) error {
	if rec.Client == 0 {
		rec.Client, rec.Seq = c.id, c.seq.Add(1)
	}
	_, err := c.roundTrip(ctx, wire.OpUpdate, func(dst []byte, remaining time.Duration) []byte {
		return updatelog.AppendRecord(wire.AppendUpdate(dst, remaining), rec)
	})
	return err
}

var _ updatelog.Applier = (*Client)(nil)

// InsertDocument applies U1 remotely: an adapter onto Apply.
func (c *Client) InsertDocument(ctx context.Context, name string, data []byte) error {
	return c.Apply(ctx, updatelog.Record{Kind: updatelog.KindInsert, Name: name, Data: data}, nil)
}

// ReplaceDocument applies U2 remotely: an adapter onto Apply.
func (c *Client) ReplaceDocument(ctx context.Context, name string, data []byte) error {
	return c.Apply(ctx, updatelog.Record{Kind: updatelog.KindReplace, Name: name, Data: data}, nil)
}

// DeleteDocument applies U3 remotely: an adapter onto Apply.
func (c *Client) DeleteDocument(ctx context.Context, name string) error {
	return c.Apply(ctx, updatelog.Record{Kind: updatelog.KindDelete, Name: name}, nil)
}

// JournalPull fetches one window of the server's committed update journal
// from req's position (see wire.OpJournal): the journal's own bytes,
// whole records, which updatelog.Decode reads. Replicas call it in a
// loop: check and apply the records, poll again from their end. A
// server without a journal, or whose journal does not hold the
// position, answers wire.ErrBadRequest.
func (c *Client) JournalPull(ctx context.Context, req wire.JournalPullRequest) ([]byte, error) {
	payload := wire.EncodeJournalPullRequest(req)
	return c.roundTrip(ctx, wire.OpJournal, func(dst []byte, _ time.Duration) []byte { return append(dst, payload...) })
}

var _ core.Engine = (*Client)(nil)
