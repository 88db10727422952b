package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xbench/internal/updatelog"
	"xbench/internal/wire"
)

// TestMuxSharesConnections: many concurrent requests ride the
// configured number of mux connections instead of one connection each.
func TestMuxSharesConnections(t *testing.T) {
	fs := newFakeServer(t, func(n int, f wire.Frame) (wire.Frame, bool) {
		return okFrame([]byte("pong")), false
	})
	c := fs.client(Config{MuxConns: 1, Retries: -1})
	defer c.Close()

	const callers = 16
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := c.roundTrip(context.Background(), wire.OpPing, nilPayload); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	reqs, conns := fs.stats()
	if reqs != callers*10 {
		t.Fatalf("server saw %d requests, want %d", reqs, callers*10)
	}
	if conns != 1 {
		t.Fatalf("%d concurrent callers used %d connections, want 1 shared mux", callers, conns)
	}
}

// TestMuxOutOfOrderResponses: the reader must route responses by frame
// ID even when the server answers out of order — the property that makes
// server-side concurrent execution safe.
func TestMuxOutOfOrderResponses(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// A server that buffers pairs of requests and answers them reversed.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			a, err := wire.ReadFrame(conn)
			if err != nil {
				return
			}
			b, err := wire.ReadFrame(conn)
			if err != nil {
				return
			}
			for _, f := range []wire.Frame{b, a} {
				resp := wire.Frame{Kind: byte(wire.StatusOK), ID: f.ID, Payload: f.Payload}
				if err := writeFrame(conn, resp); err != nil {
					return
				}
			}
		}
	}()

	c := newClient([]string{ln.Addr().String()}, Config{MuxConns: 1, Retries: -1})
	defer c.Close()
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("req-%d", i)
			payload, err := c.roundTrip(context.Background(), wire.OpPing,
				func(dst []byte, _ time.Duration) []byte { return append(dst, want...) })
			if err != nil {
				errCh <- err
				return
			}
			if string(payload) != want {
				errCh <- fmt.Errorf("response %q routed to request %q", payload, want)
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestMuxFailureFailsAllPendingAndRecovers: killing the connection fails
// every in-flight request, and the next request dials a fresh mux.
func TestMuxFailureFailsAllPendingAndRecovers(t *testing.T) {
	var severed atomic.Bool
	fs := newFakeServer(t, func(n int, f wire.Frame) (wire.Frame, bool) {
		if !severed.Load() {
			severed.Store(true)
			return wire.Frame{}, true // sever with a request in flight
		}
		return okFrame([]byte("pong")), false
	})
	c := fs.client(Config{MuxConns: 1, Retries: -1})
	defer c.Close()

	if _, err := c.roundTrip(context.Background(), wire.OpPing, nilPayload); err == nil {
		t.Fatal("request on severed mux succeeded without retries")
	}
	// The mux died; a fresh request must transparently redial.
	payload, err := c.roundTrip(context.Background(), wire.OpPing, nilPayload)
	if err != nil {
		t.Fatalf("request after mux death: %v", err)
	}
	if string(payload) != "pong" {
		t.Fatalf("payload = %q", payload)
	}
	if _, conns := fs.stats(); conns != 2 {
		t.Fatalf("used %d connections, want 2 (dead mux + replacement)", conns)
	}
}

// TestMuxRetryAcrossFailure: with retries enabled, a request on a
// severed mux is retried transparently over a redialed one.
func TestMuxRetryAcrossFailure(t *testing.T) {
	fs := newFakeServer(t, func(n int, f wire.Frame) (wire.Frame, bool) {
		if n == 1 {
			return wire.Frame{}, true
		}
		return okFrame([]byte("pong")), false
	})
	c := fs.client(Config{Retries: 3, Backoff: time.Millisecond})
	defer c.Close()
	payload, err := c.roundTrip(context.Background(), wire.OpPing, nilPayload)
	if err != nil {
		t.Fatalf("retryable ping over mux failed: %v", err)
	}
	if string(payload) != "pong" {
		t.Fatalf("payload = %q", payload)
	}
}

// TestMuxContextCancelAbandonsRequest: a canceled waiter returns
// promptly, and the mux survives for other requests (the abandoned
// response is dropped by ID, not treated as desync).
func TestMuxContextCancelAbandonsRequest(t *testing.T) {
	block := make(chan struct{})
	fs := newFakeServer(t, func(n int, f wire.Frame) (wire.Frame, bool) {
		if n == 1 {
			<-block // hold the first response hostage
		}
		return okFrame([]byte("pong")), false
	})
	c := fs.client(Config{MuxConns: 1, Retries: -1})
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.roundTrip(ctx, wire.OpPing, nilPayload)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the request reach the server
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned request returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled request did not return")
	}
	close(block) // release the stale response; the mux must drop it by ID
	payload, err := c.roundTrip(context.Background(), wire.OpPing, nilPayload)
	if err != nil {
		t.Fatalf("request after abandoned predecessor: %v", err)
	}
	if string(payload) != "pong" {
		t.Fatalf("payload = %q", payload)
	}
	if _, conns := fs.stats(); conns != 1 {
		t.Fatalf("stale response killed the mux: %d conns", conns)
	}
}

// TestMuxInPlaceEncodingHammer is the -race aliasing audit of in-place
// encoding: many goroutines issue keyed updates with distinctive
// payloads through two muxes, each encoding its payload straight into
// the write buffer it shares with the others, while responses echo the
// payload back. A payload encoded outside the write lock, or a buffer
// overwritten before its frame is written, shows up as a race report or
// as a corrupted echo.
func TestMuxInPlaceEncodingHammer(t *testing.T) {
	fs := newFakeServer(t, func(n int, f wire.Frame) (wire.Frame, bool) {
		// Echo the request payload so the client can verify integrity.
		return okFrame(append([]byte(nil), f.Payload...)), false
	})
	c := fs.client(Config{MuxConns: 2, Retries: -1, ClientID: 7})
	defer c.Close()

	const (
		goroutines = 12
		iters      = 60
	)
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("doc-%d-%d", g, i)
				data := []byte(fmt.Sprintf("<doc g=%d i=%d/>", g, i))
				rec := updatelog.Record{Kind: updatelog.KindInsert, Name: name, Data: data}
				want := updatelog.AppendRecord(wire.AppendUpdate(nil, 0), rec)
				echoed, err := c.roundTrip(context.Background(), wire.OpUpdate,
					func(dst []byte, _ time.Duration) []byte {
						return updatelog.AppendRecord(wire.AppendUpdate(dst, 0), rec)
					})
				if err != nil {
					errCh <- fmt.Errorf("g%d i%d: %w", g, i, err)
					return
				}
				if string(echoed) != string(want) {
					errCh <- fmt.Errorf("g%d i%d: payload corrupted in flight", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestMuxOversizedPayloadFailsAlone: a payload built in place past
// wire.MaxPayload writes nothing and fails its own request, under the
// default retries and breaker threshold, without a retry leg or a breaker
// failure; the mux serves the next request over the same connection,
// from a write buffer it kept at most wire.MaxKeptBuf.
func TestMuxOversizedPayloadFailsAlone(t *testing.T) {
	fs := newFakeServer(t, func(n int, f wire.Frame) (wire.Frame, bool) {
		return okFrame([]byte("pong")), false
	})
	c := fs.client(Config{MuxConns: 1})
	defer c.Close()
	if _, err := c.roundTrip(context.Background(), wire.OpPing, nilPayload); err != nil {
		t.Fatal(err)
	}
	builds := 0
	_, err := c.roundTrip(context.Background(), wire.OpQuery, func(dst []byte, _ time.Duration) []byte {
		builds++
		return append(dst, make([]byte, wire.MaxPayload+1)...)
	})
	if !errors.Is(err, wire.ErrTooLarge) || builds != 1 {
		t.Fatalf("oversized request: %v after %d builds, want wire.ErrTooLarge after 1", err, builds)
	}
	payload, err := c.roundTrip(context.Background(), wire.OpPing, nilPayload)
	if err != nil || string(payload) != "pong" {
		t.Fatalf("request after the oversized one: %q, %v", payload, err)
	}
	if reqs, conns := fs.stats(); reqs != 2 || conns != 1 {
		t.Fatalf("server saw %d requests over %d connections, want the 2 pings over 1", reqs, conns)
	}
	for _, m := range c.eps[0].mux {
		if m != nil && cap(m.wbuf) > wire.MaxKeptBuf {
			t.Fatalf("mux kept a %d-byte write buffer", cap(m.wbuf))
		}
	}
}

// TestMuxConcurrentWriters: requests issued together each write their
// own frame under the mux's write lock; all succeed and share one
// connection, and no writer deadlocks or starves another.
func TestMuxConcurrentWriters(t *testing.T) {
	fs := newFakeServer(t, func(n int, f wire.Frame) (wire.Frame, bool) {
		return okFrame(nil), false
	})
	c := fs.client(Config{MuxConns: 1, Retries: -1})
	defer c.Close()
	var wg sync.WaitGroup
	var failed atomic.Int32
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.roundTrip(context.Background(), wire.OpPing, nilPayload); err != nil {
				failed.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d requests failed under concurrent writers", n)
	}
	if _, conns := fs.stats(); conns != 1 {
		t.Fatalf("concurrent requests used %d connections", conns)
	}
}

// TestMuxClientCloseFailsWaiters: Close must wake pipelined waiters with
// ErrClosed-or-transport-error instead of leaking them, and a request
// after Close fails ErrClosed.
func TestMuxClientCloseFailsWaiters(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	fs := newFakeServer(t, func(n int, f wire.Frame) (wire.Frame, bool) {
		<-block
		return okFrame(nil), false
	})
	c := fs.client(Config{MuxConns: 1, Retries: -1})
	done := make(chan error, 1)
	go func() {
		_, err := c.roundTrip(context.Background(), wire.OpPing, nilPayload)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("waiter on closed client reported success")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close leaked a pipelined waiter")
	}
	if _, err := c.roundTrip(context.Background(), wire.OpPing, nilPayload); !errors.Is(err, ErrClosed) {
		t.Fatalf("request on closed client: %v, want ErrClosed", err)
	}
}

// TestMuxCancelDuringStuckWrite: a caller whose frame cannot leave — the
// server accepted the connection but never reads, so a 16 MiB payload
// fills both socket buffers — still honours its context: cancelling it
// returns context.Canceled promptly.
func TestMuxCancelDuringStuckWrite(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- conn // held open, never read
	}()
	defer func() {
		select {
		case conn := <-accepted:
			conn.Close()
		default:
		}
	}()

	c := newClient([]string{ln.Addr().String()}, Config{MuxConns: 1, Retries: -1})
	defer c.Close()
	payload := make([]byte, 16<<20)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.roundTrip(ctx, wire.OpPing, func(dst []byte, _ time.Duration) []byte { return append(dst, payload...) })
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the write fill the socket buffers
	select {
	case err := <-done:
		t.Fatalf("request over a connection nobody reads returned early: %v", err)
	default:
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled stuck write returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled request stayed stuck in its write")
	}
}
