package server_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"xbench/internal/client"
	"xbench/internal/core"
	"xbench/internal/router"
	"xbench/internal/server"
	"xbench/internal/updatelog"
	"xbench/internal/wire"
)

// tinyDB is a minimal database for Reopen-based tests.
func tinyDB() *core.Database {
	return &core.Database{
		Class: core.DCMD,
		Size:  core.Small,
		Docs:  []core.Doc{{Name: "seed.xml", Data: []byte("<seed/>")}},
	}
}

// startJournaled boots a crash-recoverable server (Reopen) on a fresh
// journal and returns it with a connected client.
func startJournaled(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	jp := filepath.Join(t.TempDir(), "journal.log")
	srv, _, err := server.Reopen(newStub(), tinyDB(), nil, jp, cfg)
	if err != nil {
		t.Fatal(err)
	}
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

// TestJournalPullShipsCommittedUpdates drives keyed updates through a
// journaled server and pulls them back over OpJournal: the shipped window
// is whole records that reproduce the updates in commit order with their
// idempotency keys, an up-to-date poller gets an empty window, and a
// position the journal does not hold is refused.
func TestJournalPullShipsCommittedUpdates(t *testing.T) {
	_, c := startJournaled(t, server.Config{})
	ctx := context.Background()

	if err := c.InsertDocument(ctx, "a.xml", []byte("<a/>")); err != nil {
		t.Fatal(err)
	}
	if err := c.ReplaceDocument(ctx, "a.xml", []byte("<a v=\"2\"/>")); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteDocument(ctx, "a.xml"); err != nil {
		t.Fatal(err)
	}

	window, err := c.JournalPull(ctx, wire.JournalPullRequest{})
	if err != nil {
		t.Fatal(err)
	}
	recs, n := updatelog.Decode(window)
	if n != len(window) || len(recs) != 3 {
		t.Fatalf("pull: %d records in %d of %d bytes, want 3 in all", len(recs), n, len(window))
	}
	wantKinds := []updatelog.Kind{updatelog.KindInsert, updatelog.KindReplace, updatelog.KindDelete}
	for i, rec := range recs {
		if rec.Kind != wantKinds[i] || rec.Name != "a.xml" {
			t.Fatalf("record %d: %+v", i, rec)
		}
		if rec.Client != c.ClientID() || rec.Seq == 0 {
			t.Fatalf("record %d lost its idempotency key: %+v", i, rec)
		}
	}

	// Caught up: polling from the window's end returns an empty window.
	end := wire.JournalPullRequest{Since: uint64(n), Prev: recs[2].Sum()}
	if more, err := c.JournalPull(ctx, end); err != nil || len(more) != 0 {
		t.Fatalf("caught-up pull: %d bytes, %v", len(more), err)
	}
	// Past the end, or after a record the journal does not hold there.
	for _, at := range []wire.JournalPullRequest{{Since: end.Since + 1, Prev: end.Prev}, {Since: end.Since, Prev: recs[1].Sum()}} {
		if _, err := c.JournalPull(ctx, at); !errors.Is(err, wire.ErrBadRequest) {
			t.Fatalf("pull from %+v: %v, want ErrBadRequest", at, err)
		}
	}

	// Replaying the shipped window against a fresh engine reproduces the
	// primary's state transitions (this is exactly what a replica does).
	replica := newStub()
	if err := updatelog.Replay(ctx, replica, recs); err != nil {
		t.Fatalf("replica apply: %v", err)
	}
}

// pullResult is what a journal pull answered.
type pullResult struct {
	window []byte
	err    error
}

// parkPull sends a journal pull from at and returns the channel its
// answer arrives on, once the server holds the pull parked: admitted,
// its admission slot given back, and not answered.
func parkPull(t *testing.T, srv *server.Server, c *client.Client, at wire.JournalPullRequest) <-chan pullResult {
	t.Helper()
	admitted := func() int64 { return srv.Metrics().Snapshot().Counters["server.req.admitted"] }
	before := admitted()
	answer := make(chan pullResult, 1)
	go func() {
		window, err := c.JournalPull(context.Background(), at)
		answer <- pullResult{window, err}
	}()
	for deadline := time.Now().Add(5 * time.Second); admitted() == before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the pull was never admitted")
		}
	}
	waitIdle(t, srv, "with the pull parked")
	time.Sleep(20 * time.Millisecond) // past the read, into the wait
	select {
	case r := <-answer:
		t.Fatalf("a pull at the durable end answered at once: %d bytes, %v", len(r.window), r.err)
	default:
	}
	return answer
}

// TestJournalPullWaitsForTheNextSync: a pull at the durable end parks
// until the next journal sync instead of answering empty, and then
// ships exactly the record that sync committed.
func TestJournalPullWaitsForTheNextSync(t *testing.T) {
	srv, c := startJournaled(t, server.Config{})
	pulled := parkPull(t, srv, c, wire.JournalPullRequest{})
	if err := c.InsertDocument(context.Background(), "a.xml", []byte("<a/>")); err != nil {
		t.Fatal(err)
	}
	r := <-pulled
	if r.err != nil {
		t.Fatal(r.err)
	}
	recs, n := updatelog.Decode(r.window)
	if n != len(r.window) || len(recs) != 1 || recs[0].Kind != updatelog.KindInsert || recs[0].Name != "a.xml" {
		t.Fatalf("the parked pull answered %+v in %d of %d bytes, want the one insert", recs, n, len(r.window))
	}
}

// TestShutdownWakesAParkedJournalPull: a parked pull holds no admission
// slot, and the drain wakes it, so Shutdown does not wait out its hold.
func TestShutdownWakesAParkedJournalPull(t *testing.T) {
	srv, c := startJournaled(t, server.Config{})
	pulled := parkPull(t, srv, c, wire.JournalPullRequest{})
	if n := srv.Inflight(); n != 0 {
		t.Fatalf("inflight = %d with a pull parked, want 0", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with a pull parked: %v", err)
	}
	if took := time.Since(start); took > server.JournalHold/2 {
		t.Fatalf("shutdown took %v with a pull parked, want well under its %v hold", took, server.JournalHold)
	}
	select {
	case <-pulled:
	case <-time.After(5 * time.Second):
		t.Fatal("the parked pull never answered after the drain")
	}
}

// TestJournalPullWithoutJournal pins the feature-probe contract: a server
// running without a journal answers OpJournal with wire.ErrBadRequest.
func TestJournalPullWithoutJournal(t *testing.T) {
	_, c := startServer(t, newStub(), server.Config{})
	if _, err := c.JournalPull(context.Background(), wire.JournalPullRequest{}); !errors.Is(err, wire.ErrBadRequest) {
		t.Fatalf("journal pull on journal-less server: %v, want ErrBadRequest", err)
	}
}

// TestReadOnlyServer verifies a replica-mode server: queries answer,
// every update is rejected with core.ErrReadOnly.
func TestReadOnlyServer(t *testing.T) {
	prim, _ := startJournaled(t, server.Config{})
	eng := newStub()
	if _, err := eng.Load(context.Background(), tinyDB()); err != nil {
		t.Fatal(err)
	}
	_, c := startServer(t, eng, server.Config{ReplicaOf: prim.Addr().String()})
	ctx := context.Background()

	if _, err := c.Execute(ctx, core.Q1, nil); err != nil {
		t.Fatalf("read on read-only server: %v", err)
	}
	if err := c.InsertDocument(ctx, "x.xml", []byte("<x/>")); !errors.Is(err, core.ErrReadOnly) {
		t.Fatalf("insert: %v, want ErrReadOnly", err)
	}
	if err := c.ReplaceDocument(ctx, "x.xml", []byte("<x/>")); !errors.Is(err, core.ErrReadOnly) {
		t.Fatalf("replace: %v, want ErrReadOnly", err)
	}
	if err := c.DeleteDocument(ctx, "x.xml"); !errors.Is(err, core.ErrReadOnly) {
		t.Fatalf("delete: %v, want ErrReadOnly", err)
	}
}

// TestIdemKeyPassesThroughProxy builds a two-hop chain — client → front
// server whose engine is a wire client → journaled backend — and asserts
// the backend journals the ORIGINAL client's idempotency key, not one
// minted by the forwarding hop. Then the same through a router tier: a
// front server whose engine is a router.Router over two journaled
// shards. The owning shard journals the origin's key, and the origin's
// retry of that keyed request, through a second front (the first one
// restarted, its own dedup table empty), is answered from the shard's
// dedup table: one journal record, server.req.deduped +1. This is the
// property that makes exactly-once hold end-to-end through a router tier.
func TestIdemKeyPassesThroughProxy(t *testing.T) {
	backendSrv, backendC := startJournaled(t, server.Config{})
	_ = backendSrv

	// The front server serves the backend's client as its "engine".
	proxyEng, err := client.Dial(backendC.Addr(), client.Config{ClientID: 999})
	if err != nil {
		t.Fatal(err)
	}
	front := server.New(proxyEng, server.Config{})
	if err := front.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { front.Close() })

	const originID = 424242
	c, err := client.Dial(front.Addr().String(), client.Config{ClientID: originID})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	ctx := context.Background()
	if err := c.InsertDocument(ctx, "routed.xml", []byte("<r/>")); err != nil {
		t.Fatal(err)
	}
	window, err := backendC.JournalPull(ctx, wire.JournalPullRequest{})
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := updatelog.Decode(window)
	if len(recs) != 1 {
		t.Fatalf("backend journaled %d records, want 1", len(recs))
	}
	if got := recs[0].Client; got != originID {
		t.Fatalf("backend journaled client %d, want the origin's %d (key minted by proxy instead of passed through)", got, originID)
	}

	shards := make([]*server.Server, 2)
	shardCs := make([]*client.Client, 2)
	specs := make([]router.Shard, 2)
	for i := range shards {
		shards[i], shardCs[i] = startJournaled(t, server.Config{})
		specs[i] = router.Shard{Primary: shards[i].Addr().String()}
	}
	routerFront := func() string {
		rt, err := router.Dial(specs, router.Config{})
		if err != nil {
			t.Fatal(err)
		}
		front := server.New(rt, server.Config{})
		if err := front.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { front.Close() })
		return front.Addr().String()
	}
	const name = "order-update-3.xml"
	owner := router.NewRing(len(shards), 0).Owner(name)
	key := wire.IdemKey{Client: originID, Seq: 77}
	payload := updatePayload(updatelog.KindInsert, name, []byte("<order/>"), key)
	deduped := shards[owner].Metrics().Counter("server.req.deduped")
	for i, addr := range []string{routerFront(), routerFront()} {
		if resp := dialRaw(t, addr).do(wire.OpUpdate, payload); wire.Status(resp.Kind) != wire.StatusOK {
			t.Fatalf("keyed insert through front %d: status %d (%s)", i, resp.Kind, resp.Payload)
		}
		if got := deduped.Value(); got != int64(i) {
			t.Fatalf("after front %d: the owning shard deduped %d requests, want %d", i, got, i)
		}
	}
	for i, sc := range shardCs {
		window, err := sc.JournalPull(ctx, wire.JournalPullRequest{})
		if err != nil {
			t.Fatal(err)
		}
		recs, _ := updatelog.Decode(window)
		switch {
		case i != owner && len(recs) != 0:
			t.Fatalf("shard %d, not the owner, journaled %d records", i, len(recs))
		case i == owner && len(recs) != 1:
			t.Fatalf("owning shard journaled %d records, want 1", len(recs))
		case i == owner && (recs[0].Client != key.Client || recs[0].Seq != key.Seq):
			t.Fatalf("owning shard journaled key {%d %d}, want the origin's %v (key minted by the router instead of passed through)", recs[0].Client, recs[0].Seq, key)
		}
	}
}

// updateAllocCeiling is what one journaled served update allocates
// through Server.handle over the stub engine: the record's name (the
// decode), the request's context and timer, and the rest of the server's
// path. The journal's commit, one Append, allocates nothing. The ceiling
// may only fall; a context value, a second encoding of the record, a
// journal handle or a release func taken per request would raise it.
const updateAllocCeiling = 7

// TestJournaledUpdateAllocations pins updateAllocCeiling: one OpUpdate
// through Server.handle on a journaled server, the record journaled and
// applied, each with a fresh key, and the journal holds every one.
func TestJournaledUpdateAllocations(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "journal.log")
	srv, _, err := server.Reopen(newStub(), tinyDB(), nil, jp, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 200
	payloads := make([][]byte, runs+1) // AllocsPerRun warms up with one more
	for i := range payloads {
		rec := updatelog.Record{Kind: updatelog.KindReplace, Name: "a.xml", Data: []byte("<a/>"), Client: 7, Seq: uint64(i + 1)}
		payloads[i] = updatelog.AppendRecord(wire.AppendUpdate(nil, time.Second), rec)
	}
	i := 0
	if n := testing.AllocsPerRun(runs, func() {
		if f := srv.Handle(wire.OpUpdate, payloads[i]); wire.Status(f.Kind) != wire.StatusOK {
			t.Fatalf("update %d: status %d (%s)", i, f.Kind, f.Payload)
		}
		i++
	}); n > updateAllocCeiling {
		t.Errorf("one journaled served update allocates %v times, want <= %v", n, updateAllocCeiling)
	}
	srv.Close()
	l, recs, err := updatelog.OpenFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if len(recs) != len(payloads) {
		t.Fatalf("journal holds %d records, want %d", len(recs), len(payloads))
	}
}

// landingEngine is a replica's engine that reports when each update it
// applies has landed.
type landingEngine struct {
	*stubEngine
	landed chan time.Time
}

func (e landingEngine) Apply(ctx context.Context, rec updatelog.Record, durable func() error) error {
	err := e.stubEngine.Apply(ctx, rec, durable)
	e.landed <- time.Now()
	return err
}

// BenchmarkReplicaLag measures how long an acknowledged update is missing
// from a replica on loopback: from the primary's acknowledgment of an
// insert to the replica's apply of it, one insert at a time (zero when
// the replica applied it before the acknowledgment reached the client).
// That is the window in which a read failed over to the replica misses an
// acknowledged update (DESIGN.md §16). The engines are stubs, so the lag
// is the shipping path's alone:
//
//	go test -run '^$' -bench ReplicaLag -benchtime 1000x ./internal/server/
func BenchmarkReplicaLag(b *testing.B) {
	ctx := context.Background()
	prim, _, err := server.Reopen(newStub(), tinyDB(), nil, filepath.Join(b.TempDir(), "journal"), server.Config{})
	if err != nil {
		b.Fatal(err)
	}
	if err := prim.Start(); err != nil {
		b.Fatal(err)
	}
	defer prim.Close()
	eng := landingEngine{newStub(), make(chan time.Time, 1)}
	if _, err := eng.Load(ctx, tinyDB()); err != nil {
		b.Fatal(err)
	}
	rep := server.New(eng, server.Config{ReplicaOf: prim.Addr().String()})
	if err := rep.Start(); err != nil {
		b.Fatal(err)
	}
	defer rep.Close()
	c, err := client.Dial(prim.Addr().String(), client.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	lags := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := range lags {
		if err := c.InsertDocument(ctx, fmt.Sprintf("lag-%d.xml", i), []byte("<order/>")); err != nil {
			b.Fatal(err)
		}
		acked := time.Now()
		lags[i] = max(0, (<-eng.landed).Sub(acked))
	}
	b.StopTimer()
	if err := rep.ReplicaErr(); err != nil {
		b.Fatal(err)
	}
	slices.Sort(lags)
	b.ReportMetric(float64(lags[len(lags)/2].Microseconds()), "lag_p50_us")
	b.ReportMetric(float64(lags[len(lags)*99/100].Microseconds()), "lag_p99_us")
}
