package chaos_test

import (
	"context"
	"errors"
	"io"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xbench/internal/chaos"
	"xbench/internal/client"
	"xbench/internal/core"
	"xbench/internal/server"
	"xbench/internal/updatelog"
	"xbench/internal/wire"
)

// wireStub answers every query instantly and applies every update by
// running its durable step; just enough engine to put real
// request/response traffic through the fault listener, journaled or not.
type wireStub struct{ closed atomic.Bool }

func (e *wireStub) Name() string                         { return "wire-stub" }
func (e *wireStub) Supports(core.Class, core.Size) error { return nil }
func (e *wireStub) BuildIndexes([]core.IndexSpec) error  { return nil }
func (e *wireStub) ColdReset()                           {}
func (e *wireStub) PageIO() int64                        { return 0 }
func (e *wireStub) Close() error                         { e.closed.Store(true); return nil }
func (e *wireStub) Load(context.Context, *core.Database) (core.LoadStats, error) {
	return core.LoadStats{}, nil
}
func (e *wireStub) Execute(context.Context, core.QueryID, core.Params) (core.Result, error) {
	return core.Result{Items: []string{"<x/>"}}, nil
}
func (e *wireStub) InsertDocument(context.Context, string, []byte) error  { return nil }
func (e *wireStub) ReplaceDocument(context.Context, string, []byte) error { return nil }
func (e *wireStub) DeleteDocument(context.Context, string) error          { return nil }
func (e *wireStub) Apply(_ context.Context, _ updatelog.Record, durable func() error) error {
	if durable == nil {
		return nil
	}
	return durable()
}

// serveFaulty serves srv on a loopback listener wrapped in a fault
// listener with cfg's schedule.
func serveFaulty(t *testing.T, srv *server.Server, cfg chaos.FaultConfig) *chaos.FaultListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := chaos.NewFaultListener(ln, cfg)
	if err := srv.Serve(fl); err != nil {
		t.Fatal(err)
	}
	return fl
}

// typedTransportErr reports whether err is one of the error shapes the
// client is allowed to surface for a severed connection — anything else
// (a silent success, a mangled result, a hang) is a protocol bug.
func typedTransportErr(err error) bool {
	var ne net.Error
	var oe *net.OpError
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, wire.ErrChecksum) ||
		errors.Is(err, wire.ErrOverloaded) ||
		errors.Is(err, wire.ErrShutdown) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.As(err, &ne) ||
		errors.As(err, &oe)
}

// TestFaultListenerFaultsSurfaceTypedAndServerSurvives drives concurrent
// query traffic over a fault listener severing connections mid-request
// and mid-frame. Every operation must either succeed or return a
// typed error, no client may hang, the admission gauge must return to
// zero, and the server must still answer cleanly afterwards.
func TestFaultListenerFaultsSurfaceTypedAndServerSurvives(t *testing.T) {
	eng := &wireStub{}
	srv := server.New(eng, server.Config{MaxInflight: 8})
	fl := serveFaulty(t, srv, chaos.FaultConfig{
		Seed:     42,
		DropRate: 0.10,
		TearRate: 0.10,
	})
	defer srv.Close()

	const clients, opsEach = 6, 30
	var ok, failed atomic.Int64
	var badMu sync.Mutex
	var badErrs []error
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Retry disabled: each fault must surface, so the test can
			// classify every single failure.
			cl := &faultClient{addr: srv.Addr().String()}
			defer cl.close()
			for op := 0; op < opsEach; op++ {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				err := cl.query(ctx)
				cancel()
				switch {
				case err == nil:
					ok.Add(1)
				case typedTransportErr(err):
					failed.Add(1)
				default:
					badMu.Lock()
					badErrs = append(badErrs, err)
					badMu.Unlock()
				}
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("clients wedged behind the fault listener")
	}

	if len(badErrs) > 0 {
		t.Fatalf("%d untyped errors, first: %v", len(badErrs), badErrs[0])
	}
	drops, tears := fl.Faults()
	if drops+tears == 0 {
		t.Fatal("fault listener injected no faults; test exercised nothing")
	}
	if failed.Load() == 0 {
		t.Fatal("faults were injected but no operation failed")
	}
	if ok.Load() == 0 {
		t.Fatal("every operation failed; fault rates drowned the signal")
	}
	t.Logf("ops ok=%d failed=%d; faults drops=%d tears=%d", ok.Load(), failed.Load(), drops, tears)

	// Admission slots leak-free: the gauge must settle back to zero even
	// though many requests died mid-flight.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Inflight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("admission gauge stuck at %d after the storm", srv.Inflight())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The server is not wedged: once the network heals, a clean client
	// gets normal service.
	fl.Heal()
	direct, err := client.Dial(srv.Addr().String(), client.Config{})
	if err != nil {
		t.Fatalf("server unreachable after fault storm: %v", err)
	}
	defer direct.Close()
	res, err := direct.Execute(context.Background(), core.Q1, core.Params{"X": "I1"})
	if err != nil || len(res.Items) != 1 {
		t.Fatalf("post-storm query: %+v, %v", res, err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("graceful shutdown after fault storm: %v", err)
	}
	if !eng.closed.Load() {
		t.Fatal("engine not closed by shutdown")
	}
}

// faultClient wraps client.Client with retry disabled so that every
// injected fault surfaces as an error the test can classify.
type faultClient struct {
	addr string

	mu sync.Mutex
	c  *client.Client
}

func (f *faultClient) query(ctx context.Context) error {
	f.mu.Lock()
	if f.c == nil {
		c, err := client.Dial(f.addr, client.Config{Retries: -1})
		if err != nil {
			f.mu.Unlock()
			return err
		}
		f.c = c
	}
	c := f.c
	f.mu.Unlock()
	_, err := c.Execute(ctx, core.Q1, core.Params{"X": "I1"})
	return err
}

func (f *faultClient) close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.c != nil {
		f.c.Close()
	}
}

// TestFaultListenerDeterministicFaultSchedule pins that the same seed replays
// the same fault counts for the same traffic pattern, the property that
// makes a failing chaos run reproducible from its log line.
func TestFaultListenerDeterministicFaultSchedule(t *testing.T) {
	run := func(seed uint64) (int64, int64) {
		eng := &wireStub{}
		srv := server.New(eng, server.Config{MaxInflight: 4})
		fl := serveFaulty(t, srv, chaos.FaultConfig{
			Seed: seed, DropRate: 0.25, TearRate: 0.25,
		})
		defer srv.Close()
		// Sequential single-connection-at-a-time traffic so connection
		// ordinals are deterministic.
		for i := 0; i < 40; i++ {
			cl, err := client.Dial(srv.Addr().String(), client.Config{Retries: -1})
			if err != nil {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_, _ = cl.Execute(ctx, core.Q1, nil)
			cancel()
			cl.Close()
		}
		return fl.Faults()
	}
	d1, t1 := run(7)
	d2, t2 := run(7)
	if d1 != d2 || t1 != t2 {
		t.Fatalf("same seed, different schedule: (%d,%d) vs (%d,%d)", d1, t1, d2, t2)
	}
	if d1+t1 == 0 {
		t.Fatal("deterministic run injected no faults")
	}
}

// TestFaultListenerHoldsAReplicaPull holds a replica's pull window open,
// the window in which a read failed over to the replica misses an
// acknowledged update (ROADMAP item 29). A journaled primary is served on
// a fault listener, and the connections of its replica's puller are held:
// an update acknowledged through a second client must not reach the
// replica until the hold is released, and must reach it after.
func TestFaultListenerHoldsAReplicaPull(t *testing.T) {
	prim, _, err := server.Reopen(&wireStub{}, nil, nil, filepath.Join(t.TempDir(), "journal"), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fl := serveFaulty(t, prim, chaos.FaultConfig{})
	defer prim.Close()
	rep := server.New(&wireStub{}, server.Config{ReplicaOf: prim.Addr().String()})
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	// The puller's client pings and pulls on its one connection: hold it
	// once the primary has accepted it.
	accepted := prim.Metrics().Counter("server.conn.accepted")
	for deadline := time.Now().Add(5 * time.Second); accepted.Value() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the replica opened %d connections to its primary, want 1", accepted.Value())
		}
	}
	fl.Hold()

	c, err := client.Dial(prim.Addr().String(), client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.InsertDocument(context.Background(), "held.xml", []byte("<order/>")); err != nil {
		t.Fatal(err)
	}
	// Unheld, the replica applies an acknowledged update within
	// microseconds (BenchmarkReplicaLag); held, it must not apply it at all.
	time.Sleep(20 * time.Millisecond)
	if n := rep.Applied(); n != 0 {
		t.Fatalf("the replica applied %d records through a held pull", n)
	}

	fl.Release()
	for deadline := time.Now().Add(5 * time.Second); rep.Applied() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the replica did not catch up after the hold was released")
		}
	}
	if n := rep.Applied(); n != 1 {
		t.Fatalf("the replica applied %d records, want 1", n)
	}
	if err := rep.ReplicaErr(); err != nil {
		t.Fatal(err)
	}
	if drops, tears := fl.Faults(); drops+tears != 0 {
		t.Fatalf("a zero-rate schedule faulted: drops=%d tears=%d", drops, tears)
	}
}
