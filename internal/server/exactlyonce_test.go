package server_test

import (
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"xbench/internal/core"
	"xbench/internal/server"
	"xbench/internal/updatelog"
	"xbench/internal/wire"
)

// rawConn speaks frames directly so tests can replay byte-identical
// requests — the exact thing a retrying client does after a lost
// response.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	id   uint64
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn}
}

func (r *rawConn) do(op wire.Op, payload []byte) wire.Frame {
	r.t.Helper()
	r.id++
	if err := writeFrame(r.conn, wire.Frame{Kind: byte(op), ID: r.id, Payload: payload}); err != nil {
		r.t.Fatal(err)
	}
	resp, err := wire.ReadFrame(r.conn)
	if err != nil {
		r.t.Fatal(err)
	}
	return resp
}

// writeFrame sends one raw frame as the server and the client's mux do:
// encoded with AppendFrame, then one Write.
func writeFrame(conn net.Conn, f wire.Frame) error {
	b, err := wire.AppendFrame(nil, f)
	if err != nil {
		return err
	}
	_, err = conn.Write(b)
	return err
}

// updatePayload is the OpUpdate payload of one update: no timeout, then
// its journal record.
func updatePayload(kind updatelog.Kind, name string, data []byte, key wire.IdemKey) []byte {
	return updatelog.AppendRecord(wire.AppendUpdate(nil, 0), updatelog.Record{Kind: kind, Name: name, Data: data, Client: key.Client, Seq: key.Seq})
}

// TestDedupReplaysOriginalResult: re-sending a keyed insert (the wire
// image of a client retry) answers StatusOK from the dedup table instead
// of re-applying — the stub would reject a second insert of the same
// name, so a non-OK second response means the dedup missed.
func TestDedupReplaysOriginalResult(t *testing.T) {
	eng := newStub()
	srv, _ := startServer(t, eng, server.Config{})
	rc := dialRaw(t, srv.Addr().String())

	key := wire.IdemKey{Client: 0xC0FFEE, Seq: 1}
	payload := updatePayload(updatelog.KindInsert, "order-update-1.xml", []byte("<order/>"), key)
	if resp := rc.do(wire.OpUpdate, payload); wire.Status(resp.Kind) != wire.StatusOK {
		t.Fatalf("first insert: status %d (%s)", resp.Kind, resp.Payload)
	}
	for i := 0; i < 3; i++ { // retries, byte-identical
		if resp := rc.do(wire.OpUpdate, payload); wire.Status(resp.Kind) != wire.StatusOK {
			t.Fatalf("retry %d re-applied or failed: status %d (%s)", i, resp.Kind, resp.Payload)
		}
	}
	if got := srv.Metrics().Counter("server.req.deduped").Value(); got != 3 {
		t.Fatalf("deduped counter = %d, want 3", got)
	}
	eng.mu.Lock()
	n := len(eng.docs)
	eng.mu.Unlock()
	if n != 1 {
		t.Fatalf("engine holds %d documents, want 1", n)
	}

	// A different seq is a different logical update and must re-execute:
	// the stub rejects the duplicate name, proving the engine was reached.
	fresh := updatePayload(updatelog.KindInsert, "order-update-1.xml", []byte("<order/>"), wire.IdemKey{Client: 0xC0FFEE, Seq: 2})
	if resp := rc.do(wire.OpUpdate, fresh); wire.Status(resp.Kind) == wire.StatusOK {
		t.Fatal("distinct key was deduped")
	}
}

// TestOutOfOrderKeysFromOneClientBothApply: one client's keys can reach
// the server out of order. Goroutines sharing one client.Client mint their
// keys and then race to the wire, and a router mints keys on its shard
// clients for every caller, so seq 2 can commit before seq 1 arrives. Both
// updates apply, and a replay of either is deduped and not applied again.
// A table keeping one high-water seq per client would answer the late seq
// 1 as a duplicate and never apply it: an acknowledged update lost.
func TestOutOfOrderKeysFromOneClientBothApply(t *testing.T) {
	eng := newStub()
	srv, _ := startServer(t, eng, server.Config{})
	rc := dialRaw(t, srv.Addr().String())

	updates := [][]byte{
		updatePayload(updatelog.KindInsert, "order-update-2.xml", []byte("<order n='2'/>"), wire.IdemKey{Client: 0xC, Seq: 2}),
		updatePayload(updatelog.KindInsert, "order-update-1.xml", []byte("<order n='1'/>"), wire.IdemKey{Client: 0xC, Seq: 1}),
	}
	deduped := srv.Metrics().Counter("server.req.deduped")
	for round, want := range []int64{0, 2} {
		// The stub refuses a second insert of a name, so a replay that
		// reached the engine would not answer StatusOK.
		for i, payload := range updates {
			if resp := rc.do(wire.OpUpdate, payload); wire.Status(resp.Kind) != wire.StatusOK {
				t.Fatalf("round %d, update %d: status %d (%s)", round, i, resp.Kind, resp.Payload)
			}
		}
		if got := deduped.Value(); got != want {
			t.Fatalf("round %d: deduped counter = %d, want %d", round, got, want)
		}
		eng.mu.Lock()
		n, first, second := len(eng.docs), eng.docs["order-update-1.xml"], eng.docs["order-update-2.xml"]
		eng.mu.Unlock()
		if n != 2 || string(first) != "<order n='1'/>" || string(second) != "<order n='2'/>" {
			t.Fatalf("round %d: engine holds %d documents (seq 1: %q, seq 2: %q), want both", round, n, first, second)
		}
	}
}

// TestUnkeyedUpdatesAreRefused: every update carries an idempotency key.
// One sent with the zero key, or with no key at all (its record cut
// short, so it has no intact key), is refused as a bad request before it reaches the
// engine or the journal — the keyed insert of the same name afterwards
// applies, which it could not if either had inserted the document.
func TestUnkeyedUpdatesAreRefused(t *testing.T) {
	db := &core.Database{Class: core.DCMD, Size: core.Small}
	journal := filepath.Join(t.TempDir(), "updates.journal")
	eng := newStub()
	srv, _, err := server.Reopen(eng, db, nil, journal, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	rc := dialRaw(t, srv.Addr().String())

	zeroKey := updatePayload(updatelog.KindInsert, "a.xml", []byte("<a/>"), wire.IdemKey{})
	noKey := zeroKey[:len(zeroKey)-2]
	for _, payload := range [][]byte{zeroKey, noKey} {
		if resp := rc.do(wire.OpUpdate, payload); wire.Status(resp.Kind) != wire.StatusBadRequest {
			t.Fatalf("unkeyed insert: status %d, want StatusBadRequest", resp.Kind)
		}
	}
	eng.mu.Lock()
	_, applied := eng.docs["a.xml"]
	eng.mu.Unlock()
	if applied {
		t.Fatal("a refused unkeyed insert reached the engine")
	}
	keyed := updatePayload(updatelog.KindInsert, "a.xml", []byte("<a/>"), wire.IdemKey{Client: 3, Seq: 1})
	if resp := rc.do(wire.OpUpdate, keyed); wire.Status(resp.Kind) != wire.StatusOK {
		t.Fatalf("keyed insert after the refused ones: status %d", resp.Kind)
	}
	resp := rc.do(wire.OpJournal, wire.EncodeJournalPullRequest(wire.JournalPullRequest{}))
	if pulled, n := updatelog.Decode(resp.Payload); n != len(resp.Payload) || len(pulled) != 1 || pulled[0].Client != 3 {
		t.Fatalf("journal holds %+v, want only the keyed insert", pulled)
	}
}

// TestConcurrentRetriesApplyOnce: simultaneous byte-identical keyed
// retries — the wire image of an impatient client re-sending before the
// original answered — must apply exactly once, even while the original
// is still inside its commit (applied, journal record syncing). The
// server's update mutex covers the dedup lookup, the engine call whose
// commit appends and syncs the journal record, and the dedup record, so
// a racing retry waits out the original's commit and then hits the dedup
// table: it answers with the original's result and counts as deduped.
// This is the regression test for the window where the update had
// applied but was not yet recorded.
func TestConcurrentRetriesApplyOnce(t *testing.T) {
	db := &core.Database{Class: core.DCMD, Size: core.Small}
	journal := filepath.Join(t.TempDir(), "updates.journal")
	eng := newStub()
	srv, _, err := server.Reopen(eng, db, nil, journal, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	payload := updatePayload(updatelog.KindInsert, "order-update-1.xml", []byte("<order/>"), wire.IdemKey{Client: 9, Seq: 1})
	const retries = 16
	var wg sync.WaitGroup
	statuses := make([]wire.Status, retries)
	for i := 0; i < retries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				return
			}
			defer conn.Close()
			if err := writeFrame(conn, wire.Frame{Kind: byte(wire.OpUpdate), ID: 1, Payload: payload}); err != nil {
				return
			}
			resp, err := wire.ReadFrame(conn)
			if err != nil {
				return
			}
			statuses[i] = wire.Status(resp.Kind)
		}(i)
	}
	wg.Wait()
	for i, st := range statuses {
		if st != wire.StatusOK {
			t.Fatalf("retry %d: status %d, want OK (a racing retry re-applied)", i, st)
		}
	}
	eng.mu.Lock()
	n := len(eng.docs)
	eng.mu.Unlock()
	if n != 1 {
		t.Fatalf("engine holds %d documents after %d racing retries, want 1", n, retries)
	}
	if got := srv.Metrics().Counter("server.req.deduped").Value(); got != retries-1 {
		t.Fatalf("deduped counter = %d, want %d", got, retries-1)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The journal must hold the update exactly once.
	_, n2, err := server.Reopen(newStub(), db, nil, journal, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 1 {
		t.Fatalf("journal replayed %d records, want 1", n2)
	}
}

// TestPipelinedConnRespondsOutOfOrder: a connection carrying several
// in-flight requests is served concurrently — a later cheap request
// (ping) must be answered while an earlier gated query is still
// executing, and responses are matched by frame ID, not arrival order. A
// sequential per-connection server deadlocks here.
func TestPipelinedConnRespondsOutOfOrder(t *testing.T) {
	eng := newStub()
	eng.gate = make(chan struct{})
	srv, _ := startServer(t, eng, server.Config{})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	gated := wire.AppendQueryRequest(nil, wire.QueryRequest{Query: core.Q1})
	if err := writeFrame(conn, wire.Frame{Kind: byte(wire.OpQuery), ID: 1, Payload: gated}); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, wire.Frame{Kind: byte(wire.OpPing), ID: 2}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatalf("ping behind a blocked query never answered: %v", err)
	}
	if resp.ID != 2 {
		t.Fatalf("first response has ID %d, want 2 (the ping)", resp.ID)
	}
	eng.gate <- struct{}{} // release the query
	resp, err = wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 1 {
		t.Fatalf("second response has ID %d, want 1 (the released query)", resp.ID)
	}
}

// TestReopenRecoversJournalAndDedup: acknowledged updates and their
// idempotency keys survive a full server death. A second Reopen on the
// same journal rebuilds engine state (load + replay) and the dedup table,
// so a client retrying across the restart gets the original answer and
// the update applies exactly once.
func TestReopenRecoversJournalAndDedup(t *testing.T) {
	db := &core.Database{Class: core.DCMD, Size: core.Small, Docs: []core.Doc{
		{Name: "seed.xml", Data: []byte("<seed/>")},
	}}
	journal := filepath.Join(t.TempDir(), "updates.journal")

	e1 := newStub()
	srv1, n, err := server.Reopen(e1, db, nil, journal, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("fresh journal replayed %d records", n)
	}
	if err := srv1.Start(); err != nil {
		t.Fatal(err)
	}
	rc := dialRaw(t, srv1.Addr().String())
	ins := updatePayload(updatelog.KindInsert, "order-update-1.xml", []byte("<order rev='0'/>"), wire.IdemKey{Client: 5, Seq: 1})
	for i, p := range [][]byte{
		ins,
		updatePayload(updatelog.KindReplace, "order-update-1.xml", []byte("<order rev='1'/>"), wire.IdemKey{Client: 5, Seq: 2}),
		updatePayload(updatelog.KindInsert, "order-update-2.xml", []byte("<order/>"), wire.IdemKey{Client: 5, Seq: 3}),
		updatePayload(updatelog.KindDelete, "order-update-2.xml", nil, wire.IdemKey{Client: 5, Seq: 4}),
	} {
		if resp := rc.do(wire.OpUpdate, p); wire.Status(resp.Kind) != wire.StatusOK {
			t.Fatalf("update %d: status %d (%s)", i, resp.Kind, resp.Payload)
		}
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh engine, same journal.
	e2 := newStub()
	srv2, n, err := server.Reopen(e2, db, nil, journal, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("replayed %d records, want 4", n)
	}
	if err := srv2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })

	e2.mu.Lock()
	rev1, ok1 := e2.docs["order-update-1.xml"]
	_, ok2 := e2.docs["order-update-2.xml"]
	e2.mu.Unlock()
	if !ok1 || string(rev1) != "<order rev='1'/>" {
		t.Fatalf("order-update-1.xml after recovery: %q (present=%v)", rev1, ok1)
	}
	if ok2 {
		t.Fatal("deleted order-update-2.xml resurrected by recovery")
	}

	// A retry of the pre-crash insert must dedup, not re-apply.
	rc2 := dialRaw(t, srv2.Addr().String())
	if resp := rc2.do(wire.OpUpdate, ins); wire.Status(resp.Kind) != wire.StatusOK {
		t.Fatalf("cross-restart retry re-applied: status %d (%s)", resp.Kind, resp.Payload)
	}
	if got := srv2.Metrics().Counter("server.req.deduped").Value(); got != 1 {
		t.Fatalf("deduped counter after restart retry = %d, want 1", got)
	}
}
