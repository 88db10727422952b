package server_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xbench/internal/client"
	"xbench/internal/core"
	"xbench/internal/driver"
	"xbench/internal/server"
	"xbench/internal/wire"
)

// stubEngine is an in-memory engine for wire-level tests: queries answer
// from a document map (so the update workload verifies), Execute can be
// slowed or gated to create controlled overload, and Close is recorded.
type stubEngine struct {
	delay time.Duration // per-Execute service time
	gate  chan struct{} // when non-nil, Execute blocks until it can receive

	mu     sync.Mutex
	docs   map[string][]byte
	loads  int
	resets int
	closed atomic.Bool

	entered    atomic.Int64 // Execute calls begun
	afterClose atomic.Bool  // an Execute was still running when Close came
}

func newStub() *stubEngine { return &stubEngine{docs: map[string][]byte{}} }

func (s *stubEngine) Name() string                         { return "stub" }
func (s *stubEngine) Supports(core.Class, core.Size) error { return nil }
func (s *stubEngine) BuildIndexes([]core.IndexSpec) error  { return nil }
func (s *stubEngine) PageIO() int64                        { return 77 }
func (s *stubEngine) Close() error                         { s.closed.Store(true); return nil }

func (s *stubEngine) ColdReset() {
	s.mu.Lock()
	s.resets++
	s.mu.Unlock()
}

func (s *stubEngine) Load(_ context.Context, db *core.Database) (core.LoadStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loads++
	s.docs = map[string][]byte{}
	for _, d := range db.Docs {
		s.docs[d.Name] = d.Data
	}
	return core.LoadStats{Documents: len(db.Docs), Bytes: db.Bytes()}, nil
}

func (s *stubEngine) Execute(ctx context.Context, q core.QueryID, p core.Params) (core.Result, error) {
	s.entered.Add(1)
	defer func() {
		if s.closed.Load() {
			s.afterClose.Store(true)
		}
	}()
	if s.gate != nil {
		select {
		case <-s.gate:
		case <-ctx.Done():
			return core.Result{}, ctx.Err()
		}
	}
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return core.Result{}, ctx.Err()
		}
	}
	if q == core.Q20 {
		return core.Result{}, core.ErrNoQuery
	}
	// Update-workload verification: Q1 with an update target id answers
	// from the document map.
	if x := p.Get("X"); q == core.Q1 && len(x) > 2 && (x[:2] == "OU" || x[:2] == "aU") {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, name := range []string{"order-update-" + x[2:] + ".xml", "article-update-" + x[2:] + ".xml"} {
			if doc, ok := s.docs[name]; ok {
				return core.Result{Items: []string{string(doc)}}, nil
			}
		}
		return core.Result{}, nil
	}
	return core.Result{Items: []string{q.String()}, OrderGuaranteed: true, PageIO: 3}, nil
}

func (s *stubEngine) InsertDocument(_ context.Context, name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.docs[name]; ok {
		return fmt.Errorf("stub: document %s exists", name)
	}
	s.docs[name] = data
	return nil
}

func (s *stubEngine) ReplaceDocument(_ context.Context, name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.docs[name] = data
	return nil
}

func (s *stubEngine) DeleteDocument(_ context.Context, name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.docs[name]; !ok {
		return fmt.Errorf("stub: document %s does not exist", name)
	}
	delete(s.docs, name)
	return nil
}

// startServer boots a server on a kernel-assigned loopback port and
// returns it with a connected client. Cleanup shuts both down.
func startServer(t *testing.T, eng core.Engine, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	srv := server.New(eng, cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := client.Dial(srv.Addr().String(), client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

// waitIdle waits for the admission counter to reach zero. A request's
// slot is released after its response is written (by design: the slot
// covers the write), so the counter can still read 1 for an instant after
// the client has its answer; asserting zero right then is a race.
func waitIdle(t *testing.T, srv *server.Server, when string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); srv.Inflight() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("inflight = %d %s", srv.Inflight(), when)
		}
	}
}

// TestRemoteEngineEndToEnd drives every core.Engine method through the
// wire and checks the results match what the engine answers in-process.
func TestRemoteEngineEndToEnd(t *testing.T) {
	ctx := context.Background()
	eng := newStub()
	srv, c := startServer(t, eng, server.Config{})

	if c.Name() != "stub" {
		t.Fatalf("remote name %q, want the engine's own", c.Name())
	}
	if err := c.Supports(core.DCMD, core.Small); err != nil {
		t.Fatalf("Supports: %v", err)
	}

	db := &core.Database{Class: core.DCMD, Size: core.Small, Docs: []core.Doc{
		{Name: "order1.xml", Data: []byte("<order id=\"O1\"/>")},
	}}
	st, err := c.Load(ctx, db)
	if err != nil || st.Documents != 1 {
		t.Fatalf("Load: %+v, %v", st, err)
	}
	if err := c.BuildIndexes([]core.IndexSpec{{Class: core.DCMD, Target: "order/@id"}}); err != nil {
		t.Fatalf("BuildIndexes: %v", err)
	}

	res, err := c.Execute(ctx, core.Q5, core.Params{"X": "O1"})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	want, _ := eng.Execute(ctx, core.Q5, core.Params{"X": "O1"})
	if len(res.Items) != 1 || res.Items[0] != want.Items[0] || !res.OrderGuaranteed || res.PageIO != want.PageIO {
		t.Fatalf("remote result %+v diverges from local %+v", res, want)
	}

	// Typed engine errors cross the wire.
	if _, err := c.Execute(ctx, core.Q20, nil); !errors.Is(err, core.ErrNoQuery) {
		t.Fatalf("Q20: %v, want ErrNoQuery", err)
	}

	// Updates.
	if err := c.InsertDocument(ctx, "new.xml", []byte("<x/>")); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := c.InsertDocument(ctx, "new.xml", []byte("<x/>")); err == nil {
		t.Fatal("double insert did not fail")
	}
	if err := c.ReplaceDocument(ctx, "new.xml", []byte("<y/>")); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	if err := c.DeleteDocument(ctx, "new.xml"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := c.DeleteDocument(ctx, "new.xml"); err == nil {
		t.Fatal("delete of a missing document did not fail")
	}

	c.ColdReset()
	if got := c.PageIO(); got != 77 {
		t.Fatalf("PageIO = %d, want 77", got)
	}

	// Sequential requests reuse the client's two mux connections.
	if got := srv.Metrics().Counter("server.conn.accepted").Value(); got != 2 {
		t.Fatalf("server accepted %d connections for one sequential client, want 2", got)
	}
	waitIdle(t, srv, "after quiesce")
}

// TestPerRequestTimeout: a client deadline rides the wire and cancels the
// engine call server-side, surfacing as context.DeadlineExceeded.
func TestPerRequestTimeout(t *testing.T) {
	eng := newStub()
	eng.delay = 2 * time.Second
	_, c := startServer(t, eng, server.Config{})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Execute(ctx, core.Q1, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out query: %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("timeout took %v, deadline was 30ms", elapsed)
	}
}

// TestOverloadSheds: with MaxInflight=1 and a gated engine, concurrent
// requests beyond the slot are rejected with ErrOverloaded after the
// queue wait, and the admitted request still completes.
func TestOverloadSheds(t *testing.T) {
	eng := newStub()
	eng.gate = make(chan struct{})
	srv, _ := startServer(t, eng, server.Config{
		MaxInflight: 1,
		QueueWait:   20 * time.Millisecond,
	})
	// Retries disabled: this test counts server-side rejections 1:1 with
	// client-visible errors, so the client's overload-retry must be off.
	c, err := client.Dial(srv.Addr().String(), client.Config{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	const n = 4
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := c.Execute(context.Background(), core.Q1, nil)
			errs <- err
		}()
	}

	// All but the slot holder must shed within the queue wait.
	var overloaded, pending int
	for i := 0; i < n-1; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, wire.ErrOverloaded) {
				t.Fatalf("shed request returned %v, want ErrOverloaded", err)
			}
			overloaded++
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d neither completed nor shed", i)
		}
	}

	close(eng.gate) // release the admitted request
	select {
	case err := <-errs:
		if err != nil {
			t.Fatalf("admitted request failed: %v", err)
		}
		pending++
	case <-time.After(5 * time.Second):
		t.Fatal("admitted request hung")
	}
	if overloaded < 1 {
		t.Fatal("no request observed ErrOverloaded")
	}
	waitIdle(t, srv, "after overload storm")
	if srv.Metrics().Counter("server.req.rejected").Value() != int64(overloaded) {
		t.Fatalf("rejected counter %d, want %d",
			srv.Metrics().Counter("server.req.rejected").Value(), overloaded)
	}
}

// TestGracefulDrain: Shutdown lets the in-flight request finish and
// deliver its response, rejects new work, closes the engine, and leaves
// the admission counter at zero.
func TestGracefulDrain(t *testing.T) {
	eng := newStub()
	eng.gate = make(chan struct{}, 1)
	srv, c := startServer(t, eng, server.Config{})

	inflightDone := make(chan error, 1)
	go func() {
		_, err := c.Execute(context.Background(), core.Q1, nil)
		inflightDone <- err
	}()
	// Wait until the request holds its admission slot.
	for i := 0; srv.Inflight() == 0; i++ {
		if i > 500 {
			t.Fatal("request never reached the engine")
		}
		time.Sleep(time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Drain has begun (or is about to): release the in-flight request.
	time.Sleep(10 * time.Millisecond)
	eng.gate <- struct{}{}

	if err := <-inflightDone; err != nil {
		t.Fatalf("in-flight request did not survive the drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if !eng.closed.Load() {
		t.Fatal("engine not closed after drain")
	}
	if srv.Inflight() != 0 {
		t.Fatalf("inflight = %d after drain", srv.Inflight())
	}

	// The drained server accepts no new work: a fresh request fails typed
	// (connection refused or ErrShutdown, depending on timing).
	if _, err := c.Execute(context.Background(), core.Q1, nil); err == nil {
		t.Fatal("request succeeded against a drained server")
	}
	// Shutdown is idempotent.
	if err := srv.Close(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestRemoteDriverMatchesInProcessSchema: the closed-loop driver over a
// remote engine produces a report with the same shape and accounting as
// the same run in-process — the acceptance criterion that remote sweeps
// share the report schema.
func TestRemoteDriverMatchesInProcessSchema(t *testing.T) {
	ctx := context.Background()
	mix := []core.QueryID{core.Q1, core.Q5, core.Q8}
	cfg := driver.Config{
		Clients:      2,
		OpsPerClient: 8,
		Seed:         3,
		Queries:      mix,
		Think:        -1,
	}

	local, err := driver.Run(ctx, newStub(), core.DCMD, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, c := startServer(t, newStub(), server.Config{})
	remote, err := driver.Run(ctx, c, core.DCMD, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if remote.Engine != local.Engine {
		t.Errorf("engine label %q, want %q", remote.Engine, local.Engine)
	}
	if remote.Ops != local.Ops || remote.Errs != local.Errs || remote.Canceled != local.Canceled {
		t.Errorf("accounting diverges: remote ops=%d errs=%d canceled=%d, local ops=%d errs=%d canceled=%d",
			remote.Ops, remote.Errs, remote.Canceled, local.Ops, local.Errs, local.Canceled)
	}
	if len(remote.Mix) != len(local.Mix) || len(remote.Cells) != len(local.Cells) {
		t.Errorf("schema diverges: remote mix=%v cells=%d, local mix=%v cells=%d",
			remote.Mix, len(remote.Cells), local.Mix, len(local.Cells))
	}
	for i := range remote.Cells {
		if remote.Cells[i].Query != local.Cells[i].Query || remote.Cells[i].Count != local.Cells[i].Count {
			t.Errorf("cell %d: remote %+v, local %+v", i, remote.Cells[i], local.Cells[i])
		}
	}
}

// TestDriverThroughOverloadAndDrain is the -race acceptance test: N
// driver clients push a MaxInflight=1 server into overload (observing at
// least one ErrOverloaded), then a graceful drain completes with every
// in-flight request answered or typed-failed — nothing hangs.
func TestDriverThroughOverloadAndDrain(t *testing.T) {
	ctx := context.Background()
	eng := newStub()
	eng.delay = 3 * time.Millisecond
	srv := server.New(eng, server.Config{
		MaxInflight: 1,
		QueueWait:   time.Millisecond,
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(srv.Addr().String(), client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rep, err := driver.Run(ctx, c, core.DCMD, driver.Config{
		Clients:      8,
		OpsPerClient: 10,
		Queries:      []core.QueryID{core.Q1, core.Q5},
		NoWarmup:     true,
		Think:        -1,
	})
	// The run must complete (no hang) and must have been shed at least
	// once: 8 clients into 1 slot with a 1ms queue wait cannot all fit.
	if rep.Ops != 80 {
		t.Fatalf("driver completed %d/80 ops", rep.Ops)
	}
	if rep.Errs < 1 {
		t.Fatal("overloaded server shed no requests")
	}
	if err == nil || !errors.Is(err, wire.ErrOverloaded) {
		t.Fatalf("driver error %v, want to observe ErrOverloaded", err)
	}
	waitIdle(t, srv, "after the storm")

	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		t.Fatalf("drain after overload: %v", err)
	}
	if !eng.closed.Load() {
		t.Fatal("engine not closed")
	}
}
