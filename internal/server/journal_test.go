package server_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"xbench/internal/client"
	"xbench/internal/core"
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
	if err := updatelog.Apply(ctx, replica, recs); err != nil {
		t.Fatalf("replica apply: %v", err)
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
// every mutating op is rejected with core.ErrReadOnly.
func TestReadOnlyServer(t *testing.T) {
	eng := newStub()
	if _, err := eng.Load(context.Background(), tinyDB()); err != nil {
		t.Fatal(err)
	}
	_, c := startServer(t, eng, server.Config{ReadOnly: true})
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
	if _, err := c.Load(ctx, tinyDB()); !errors.Is(err, core.ErrReadOnly) {
		t.Fatalf("load: %v, want ErrReadOnly", err)
	}
	if err := c.BuildIndexes(nil); !errors.Is(err, core.ErrReadOnly) {
		t.Fatalf("indexes: %v, want ErrReadOnly", err)
	}
}

// TestIdemKeyPassesThroughProxy builds a two-hop chain — client → front
// server whose engine is a wire client → journaled backend — and asserts
// the backend journals the ORIGINAL client's idempotency key, not one
// minted by the forwarding hop. This is the property that makes
// exactly-once hold end-to-end through a router tier.
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
}
