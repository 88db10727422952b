package client

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"xbench/internal/core"
	"xbench/internal/updatelog"
	"xbench/internal/wire"
)

// fakeServer speaks raw frames so tests can inject torn responses and
// protocol rejections without a real engine behind them. The handler
// receives the 1-based request ordinal; returning drop=true severs the
// connection without responding (a mid-request crash as the client
// sees it).
type fakeServer struct {
	ln     net.Listener
	handle func(n int, f wire.Frame) (resp wire.Frame, drop bool)

	mu     sync.Mutex
	reqs   int
	conns  int
	frames []wire.Frame
}

func newFakeServer(t *testing.T, handle func(int, wire.Frame) (wire.Frame, bool)) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{ln: ln, handle: handle}
	t.Cleanup(func() { ln.Close() })
	go fs.loop()
	return fs
}

func (fs *fakeServer) loop() {
	for {
		conn, err := fs.ln.Accept()
		if err != nil {
			return
		}
		fs.mu.Lock()
		fs.conns++
		fs.mu.Unlock()
		go func() {
			defer conn.Close()
			for {
				f, err := wire.ReadFrame(conn)
				if err != nil {
					return
				}
				fs.mu.Lock()
				fs.reqs++
				n := fs.reqs
				fs.frames = append(fs.frames, f)
				fs.mu.Unlock()
				resp, drop := fs.handle(n, f)
				if drop {
					return
				}
				if resp.ID == 0 {
					resp.ID = f.ID // echo unless the handler forged one
				}
				if err := writeFrame(conn, resp); err != nil {
					return
				}
			}
		}()
	}
}

// writeFrame sends one frame as the server does: encoded with
// AppendFrame, then one Write.
func writeFrame(conn net.Conn, f wire.Frame) error {
	b, err := wire.AppendFrame(nil, f)
	if err != nil {
		return err
	}
	_, err = conn.Write(b)
	return err
}

func (fs *fakeServer) stats() (reqs, conns int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.reqs, fs.conns
}

func (fs *fakeServer) seen() []wire.Frame {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]wire.Frame(nil), fs.frames...)
}

func (fs *fakeServer) addr() string { return fs.ln.Addr().String() }

func (fs *fakeServer) client(cfg Config) *Client {
	return newClient([]string{fs.addr()}, cfg)
}

func okFrame(payload []byte) wire.Frame {
	return wire.Frame{Kind: byte(wire.StatusOK), Payload: payload}
}

// deadAddr returns an address nothing listens on (listen then close, so
// the port was just free).
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestRetryTornResponseForIdempotentOp: a connection dropped after the
// request was written is retried (every op is idempotent) and the retry
// succeeds transparently.
func TestRetryTornResponseForIdempotentOp(t *testing.T) {
	fs := newFakeServer(t, func(n int, f wire.Frame) (wire.Frame, bool) {
		if n == 1 {
			return wire.Frame{}, true // sever without responding
		}
		return okFrame([]byte("pong")), false
	})
	c := fs.client(Config{Retries: 3, Backoff: time.Millisecond})
	payload, err := c.roundTrip(context.Background(), wire.OpPing, nilPayload)
	if err != nil {
		t.Fatalf("retryable ping failed: %v", err)
	}
	if string(payload) != "pong" {
		t.Fatalf("payload = %q", payload)
	}
	if reqs, _ := fs.stats(); reqs != 2 {
		t.Fatalf("server saw %d requests, want 2 (original + retry)", reqs)
	}
}

// TestUpdateRetriesWithSameKey: an insert whose response was lost is
// re-sent — and every leg carries the SAME idempotency key, so the
// server can recognize the retry and answer with the original outcome
// instead of double-applying.
func TestUpdateRetriesWithSameKey(t *testing.T) {
	fs := newFakeServer(t, func(n int, f wire.Frame) (wire.Frame, bool) {
		if n == 1 {
			return wire.Frame{}, true // lose the first response
		}
		return okFrame(nil), false
	})
	c := fs.client(Config{Retries: 3, Backoff: time.Millisecond, ClientID: 77})
	if err := c.InsertDocument(context.Background(), "order-update-1.xml", []byte("<order/>")); err != nil {
		t.Fatalf("insert with one lost response failed: %v", err)
	}
	frames := fs.seen()
	if len(frames) != 2 {
		t.Fatalf("server saw %d requests, want 2 (original + retry)", len(frames))
	}
	var keys []wire.IdemKey
	for _, f := range frames {
		keys = append(keys, sentKey(t, f))
	}
	if keys[0].Client == 0 {
		t.Fatal("update sent without an idempotency key")
	}
	if keys[0] != keys[1] {
		t.Fatalf("retry changed the idempotency key: %v then %v", keys[0], keys[1])
	}
	if keys[0].Client != 77 {
		t.Fatalf("key client = %d, want configured ClientID 77", keys[0].Client)
	}

	// A second logical update mints a FRESH key — retries dedup, new ops
	// do not.
	if err := c.DeleteDocument(context.Background(), "order-update-1.xml"); err != nil {
		t.Fatal(err)
	}
	if sentKey(t, fs.seen()[2]) == keys[0] {
		t.Fatal("distinct logical updates shared an idempotency key")
	}
}

// sentKey decodes the idempotency key of the update request f.
func sentKey(t *testing.T, f wire.Frame) wire.IdemKey {
	t.Helper()
	_, b, err := wire.DecodeUpdate(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := updatelog.DecodeOne(b)
	if err != nil {
		t.Fatal(err)
	}
	return wire.IdemKey{Client: rec.Client, Seq: rec.Seq}
}

// TestOverloadedRetriedWithBackoff: StatusOverloaded is a pre-execution
// admission rejection — the client backs off and retries instead of
// surfacing backpressure to the workload.
func TestOverloadedRetriedWithBackoff(t *testing.T) {
	fs := newFakeServer(t, func(n int, f wire.Frame) (wire.Frame, bool) {
		if n <= 2 {
			return wire.Frame{Kind: byte(wire.StatusOverloaded), Payload: []byte("busy")}, false
		}
		return okFrame(wire.AppendResult(nil, core.Result{})), false
	})
	c := fs.client(Config{Retries: 5, Backoff: time.Millisecond})
	if _, err := c.Execute(context.Background(), core.Q1, nil); err != nil {
		t.Fatalf("query through transient overload failed: %v", err)
	}
	if reqs, _ := fs.stats(); reqs != 3 {
		t.Fatalf("server saw %d requests, want 3 (two rejections + success)", reqs)
	}
}

// TestOverloadedSurfacesAfterRetriesExhausted: persistent overload still
// ends in the typed sentinel once the retry budget runs out.
func TestOverloadedSurfacesAfterRetriesExhausted(t *testing.T) {
	fs := newFakeServer(t, func(n int, f wire.Frame) (wire.Frame, bool) {
		return wire.Frame{Kind: byte(wire.StatusOverloaded), Payload: []byte("busy")}, false
	})
	c := fs.client(Config{Retries: 2, Backoff: time.Millisecond})
	_, err := c.Execute(context.Background(), core.Q1, nil)
	if !errors.Is(err, wire.ErrOverloaded) {
		t.Fatalf("err = %v, want wire.ErrOverloaded", err)
	}
	if reqs, _ := fs.stats(); reqs != 3 {
		t.Fatalf("server saw %d requests, want 3 (original + 2 retries)", reqs)
	}
}

// TestLoadRefusedWithoutARoundTrip: a served engine holds the database
// its server loaded, so Load and BuildIndexes fail with core.ErrServed,
// naming `xbench serve`, and send nothing.
func TestLoadRefusedWithoutARoundTrip(t *testing.T) {
	fs := newFakeServer(t, func(n int, f wire.Frame) (wire.Frame, bool) {
		return okFrame(nil), false
	})
	c := fs.client(Config{})
	db := &core.Database{Class: core.DCSD, Size: core.Small}
	if _, err := c.Load(context.Background(), db); !errors.Is(err, core.ErrServed) || !strings.Contains(err.Error(), "xbench serve") {
		t.Fatalf("Load = %v, want core.ErrServed naming xbench serve", err)
	}
	if err := c.BuildIndexes(nil); !errors.Is(err, core.ErrServed) {
		t.Fatalf("BuildIndexes = %v, want core.ErrServed", err)
	}
	if reqs, conns := fs.stats(); reqs != 0 || conns != 0 {
		t.Fatalf("server saw %d requests on %d connections, want none", reqs, conns)
	}
}

// TestColdResetRetriesATornResponse: dropping caches twice does what
// dropping them once does, so a cold reset whose response was lost is
// re-sent like any other op.
func TestColdResetRetriesATornResponse(t *testing.T) {
	fs := newFakeServer(t, func(n int, f wire.Frame) (wire.Frame, bool) {
		return okFrame(nil), n == 1 // sever the first, answer the retry
	})
	c := fs.client(Config{Retries: 3, Backoff: time.Millisecond})
	c.ColdReset()
	if reqs, _ := fs.stats(); reqs != 2 {
		t.Fatalf("server saw %d cold resets, want 2 (the torn one and its retry)", reqs)
	}
}

// TestDialRetryHonorsContext: with nothing listening, the client backs
// off between dial attempts but must abandon the wait the moment the
// caller's context expires.
func TestDialRetryHonorsContext(t *testing.T) {
	c := newClient([]string{deadAddr(t)}, Config{Retries: 100, Backoff: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.roundTrip(ctx, wire.OpPing, nilPayload)
	if err == nil {
		t.Fatal("dial to a dead address succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("context-bounded retry took %v", elapsed)
	}
}

// TestFailoverToSecondAddress: with the primary dead, requests land on
// the secondary; once the primary's breaker opens, requests stop paying
// the dial-to-dead tax at all.
func TestFailoverToSecondAddress(t *testing.T) {
	fs := newFakeServer(t, func(n int, f wire.Frame) (wire.Frame, bool) {
		return okFrame([]byte("pong")), false
	})
	c := newClient([]string{deadAddr(t), fs.addr()}, Config{
		Retries: 5, Backoff: time.Millisecond,
		FailThreshold: 2, Cooldown: time.Hour, // breaker never re-probes in this test
		DialTimeout: 200 * time.Millisecond,
	})
	// Each call prefers the dead primary until its breaker opens after 2
	// consecutive dial failures, then sticks to the secondary.
	for i := 0; i < 4; i++ {
		if _, err := c.roundTrip(context.Background(), wire.OpPing, nilPayload); err != nil {
			t.Fatalf("call %d with live secondary failed: %v", i, err)
		}
	}
	if reqs, _ := fs.stats(); reqs != 4 {
		t.Fatalf("secondary saw %d requests, want 4", reqs)
	}
	c.mu.Lock()
	primaryOpen := c.eps[0].brk.open(time.Now())
	c.mu.Unlock()
	if !primaryOpen {
		t.Fatal("primary breaker still closed after consecutive dial failures")
	}
}

// TestDialAddrsFailover: the constructor itself fails over — a client
// handed a dead primary and a live secondary comes up.
func TestDialAddrsFailover(t *testing.T) {
	fs := newFakeServer(t, func(n int, f wire.Frame) (wire.Frame, bool) {
		return okFrame([]byte("stub-engine")), false
	})
	c, err := DialAddrs([]string{deadAddr(t), fs.addr()}, Config{
		Retries: 5, Backoff: time.Millisecond, FailThreshold: 1,
		DialTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("DialAddrs with one live address failed: %v", err)
	}
	defer c.Close()
	if c.Name() != "stub-engine" {
		t.Fatalf("Name() = %q", c.Name())
	}
}

// TestBreakerStateMachine: closed -> open after threshold, cooling
// blocks, half-open admits exactly one probe, probe failure re-opens,
// probe success closes.
func TestBreakerStateMachine(t *testing.T) {
	var b breaker
	t0 := time.Unix(1000, 0)
	cooldown := time.Second

	if !b.allow(t0) {
		t.Fatal("zero-value breaker blocked traffic")
	}
	b.failure(t0, 3, cooldown)
	b.failure(t0, 3, cooldown)
	if !b.allow(t0) {
		t.Fatal("breaker opened below threshold")
	}
	b.failure(t0, 3, cooldown) // third consecutive: opens
	if b.allow(t0) {
		t.Fatal("breaker admitted traffic while cooling")
	}
	if !b.open(t0) {
		t.Fatal("open() = false while cooling")
	}

	t1 := t0.Add(cooldown + time.Millisecond) // cooldown elapsed: half-open
	if !b.allow(t1) {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.allow(t1) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.failure(t1, 3, cooldown) // probe failed: re-open immediately
	if b.allow(t1.Add(time.Millisecond)) {
		t.Fatal("breaker closed after a failed probe")
	}

	t2 := t1.Add(cooldown + time.Millisecond)
	if !b.allow(t2) {
		t.Fatal("second half-open refused the probe")
	}
	b.success()
	if !b.allow(t2) || b.open(t2) {
		t.Fatal("successful probe did not close the breaker")
	}
}

// TestBreakerRecoversAfterCooldown: end-to-end — a primary that dies and
// comes back is probed after the cooldown and wins traffic back.
func TestBreakerRecoversAfterCooldown(t *testing.T) {
	var primaryUp sync.Map // "up" -> bool
	primaryUp.Store("up", false)

	// The primary rejects connections until flipped up by listening late;
	// simulate with a handler-level toggle instead: both endpoints live,
	// but the primary severs every request while "down".
	prim := newFakeServer(t, func(n int, f wire.Frame) (wire.Frame, bool) {
		up, _ := primaryUp.Load("up")
		if !up.(bool) {
			return wire.Frame{}, true // torn response = transport failure
		}
		return okFrame([]byte("primary")), false
	})
	sec := newFakeServer(t, func(n int, f wire.Frame) (wire.Frame, bool) {
		return okFrame([]byte("secondary")), false
	})
	c := newClient([]string{prim.addr(), sec.addr()}, Config{
		Retries: 5, Backoff: time.Millisecond,
		FailThreshold: 1, Cooldown: 30 * time.Millisecond,
	})
	// Trip the primary's breaker.
	if p, err := c.roundTrip(context.Background(), wire.OpPing, nilPayload); err != nil || string(p) != "secondary" {
		t.Fatalf("first call: payload=%q err=%v, want failover to secondary", p, err)
	}
	// While cooling, traffic goes straight to the secondary.
	if p, _ := c.roundTrip(context.Background(), wire.OpPing, nilPayload); string(p) != "secondary" {
		t.Fatalf("during cooldown got %q, want secondary", p)
	}
	// Revive the primary, wait out the cooldown: the half-open probe
	// succeeds and the primary is preferred again.
	primaryUp.Store("up", true)
	time.Sleep(50 * time.Millisecond)
	if p, err := c.roundTrip(context.Background(), wire.OpPing, nilPayload); err != nil || string(p) != "primary" {
		t.Fatalf("after recovery: payload=%q err=%v, want primary", p, err)
	}
}

// TestJitterDeterministicWithSeed: two clients with the same (ClientID,
// Seed) draw identical jitter streams; different seeds diverge. This is
// what lets failure-injection tests replay byte-for-byte.
func TestJitterDeterministicWithSeed(t *testing.T) {
	draw := func(c *Client, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = c.jitter.Float64()
		}
		return out
	}
	a := newClient([]string{"x"}, Config{ClientID: 1, Seed: 42})
	b := newClient([]string{"x"}, Config{ClientID: 1, Seed: 42})
	d := newClient([]string{"x"}, Config{ClientID: 1, Seed: 43})
	av, bv, dv := draw(a, 8), draw(b, 8), draw(d, 8)
	same, diff := true, false
	for i := range av {
		same = same && av[i] == bv[i]
		diff = diff || av[i] != dv[i]
	}
	if !same {
		t.Fatal("same seed produced different jitter streams")
	}
	if !diff {
		t.Fatal("different seeds produced identical jitter streams")
	}
}
