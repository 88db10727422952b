package server_test

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"xbench/internal/client"
	"xbench/internal/core"
	"xbench/internal/server"
	"xbench/internal/wire"
)

// waitEntered waits until the stub has begun n Execute calls.
func waitEntered(t *testing.T, eng *stubEngine, n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); eng.entered.Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests reached the engine, want %d", eng.entered.Load(), n)
		}
	}
}

// TestConnWorkersBoundedByPipeline: one connection sends connPipeline+1
// requests into an engine that parks them all. Exactly connPipeline are
// started — each on a worker of its own, none queued behind another — and
// the last one starts only when a worker finishes; all are answered.
func TestConnWorkersBoundedByPipeline(t *testing.T) {
	const n = server.ConnPipeline + 1
	eng := newStub()
	eng.gate = make(chan struct{})
	srv, _ := startServer(t, eng, server.Config{MaxInflight: 2 * n})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	query := wire.EncodeQueryRequest(wire.QueryRequest{Query: core.Q1})
	var batch []byte
	for id := uint64(1); id <= n; id++ {
		if batch, err = wire.AppendFrame(batch, wire.Frame{Kind: byte(wire.OpQuery), ID: id, Payload: query}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(batch); err != nil {
		t.Fatal(err)
	}

	waitEntered(t, eng, server.ConnPipeline)
	time.Sleep(50 * time.Millisecond)
	if got := eng.entered.Load(); got != server.ConnPipeline {
		t.Fatalf("%d requests executing on one connection, cap is %d", got, server.ConnPipeline)
	}
	eng.gate <- struct{}{} // one finishes: its worker takes the last frame
	waitEntered(t, eng, n)
	close(eng.gate)

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		resp, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("response %d of %d: %v", i+1, n, err)
		}
		if wire.Status(resp.Kind) != wire.StatusOK || seen[resp.ID] || resp.ID < 1 || resp.ID > n {
			t.Fatalf("response %d: id %d status %d (%s)", i+1, resp.ID, resp.Kind, resp.Payload)
		}
		seen[resp.ID] = true
	}
	waitIdle(t, srv, "after the burst")
}

// TestClientGoneMidBurst: the client hangs up with a burst of requests
// inside the engine. Every worker still finishes its request, releases
// its slot and exits before Close closes the engine under it.
func TestClientGoneMidBurst(t *testing.T) {
	const burst = 16
	eng := newStub()
	eng.gate = make(chan struct{})
	srv := server.New(eng, server.Config{})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(srv.Addr().String(), client.Config{Pipeline: true, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Execute(context.Background(), core.Q1, nil) // fails when the client closes
		}()
	}
	waitEntered(t, eng, burst)
	c.Close()
	wg.Wait()
	close(eng.gate)

	if err := srv.Close(); err != nil {
		t.Fatalf("close after the client vanished: %v", err)
	}
	if n := srv.Inflight(); n != 0 {
		t.Fatalf("inflight = %d after Close", n)
	}
	if eng.afterClose.Load() {
		t.Fatal("a request was still executing when the engine was closed")
	}
}

// TestServedRoundTripAllocations pins what one request costs in
// allocations around the engine: a loopback Client.Execute over the stub,
// client and server side together (they share the process), on both
// client transports. The ceilings may only fall.
func TestServedRoundTripAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("under the race detector sync.Pool drops a share of the buffers put back")
	}
	srv, _ := startServer(t, newStub(), server.Config{})
	ctx := context.Background()
	p := core.Params{"X": "O1"}
	for _, tc := range []struct {
		name    string
		cfg     client.Config
		ceiling float64
	}{
		{"pooled", client.Config{}, 17},
		{"pipelined", client.Config{Pipeline: true}, 19},
	} {
		c, err := client.Dial(srv.Addr().String(), tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.Execute(ctx, core.Q5, p) // the connection, its worker and the buffer pools exist
		if n := testing.AllocsPerRun(200, func() {
			if _, err := c.Execute(ctx, core.Q5, p); err != nil {
				t.Fatal(err)
			}
		}); n > tc.ceiling {
			t.Errorf("%s: one served round trip allocates %v times, want <= %v", tc.name, n, tc.ceiling)
		}
	}
}
