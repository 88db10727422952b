package router_test

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"xbench/internal/client"
	"xbench/internal/core"
	"xbench/internal/server"
	"xbench/internal/updatelog"
	"xbench/internal/wire"
)

// docNames lists the documents an engine holds, sorted.
func (s *stubEngine) docNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.docs))
	for name := range s.docs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// startReplica loads db into eng and serves it as a read replica of the
// primary at primary, closed when the test ends.
func startReplica(t *testing.T, eng *stubEngine, db *core.Database, primary string) *server.Server {
	t.Helper()
	if _, err := eng.Load(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	rep := server.New(eng, server.Config{ReplicaOf: primary})
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	return rep
}

// awaitHalt waits for the replica's puller to stop with an error.
func awaitHalt(t *testing.T, rep *server.Server) error {
	t.Helper()
	select {
	case <-rep.Halted():
	case <-time.After(10 * time.Second):
		t.Fatalf("replica never stopped (applied %d)", rep.Applied())
	}
	if rep.ReplicaErr() == nil {
		t.Fatal("Halted closed with no ReplicaErr")
	}
	return rep.ReplicaErr()
}

// writeJournal journals recs in a fresh file under dir and returns its path.
func writeJournal(t *testing.T, dir, name string, recs ...updatelog.Record) string {
	t.Helper()
	path := filepath.Join(dir, name)
	l, _, err := updatelog.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := l.Append(updatelog.AppendRecord(nil, r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplicaRefusesAForkedPrimary: the primary, on journal A, takes a-0
// and a-1 and the replica applies both; the primary then comes back on
// the same address with journal B holding b-0, b-1 and b-2. Every record
// has the same length, so the replica's offset is a record boundary in B
// too: only the checksum its pull names tells the journals apart. The
// replica must keep {a-0, a-1}, never apply b-2 on top, and stop — Halted
// closed — with ReplicaErr saying why. Halted, it refuses every query and explain with
// wire.ErrShutdown (what a failover client retries on the shard's next
// member) naming the halt, instead of answering from its frozen state.
func TestReplicaRefusesAForkedPrimary(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	start := func(journal, addr string) *server.Server {
		srv, _, err := server.Reopen(newStub(), testDB(0), nil, journal, server.Config{Addr: addr})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	primA := start(filepath.Join(dir, "a.journal"), "")
	addr := primA.Addr().String()

	eng := newStub()
	rep := startReplica(t, eng, testDB(0), addr)

	pc, err := client.Dial(addr, client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a-0.xml", "a-1.xml"} {
		if err := pc.InsertDocument(ctx, name, []byte("<order/>")); err != nil {
			t.Fatal(err)
		}
	}
	pc.Close()
	deadline := time.Now().Add(5 * time.Second)
	for rep.Applied() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("replica applied %d/2 (err=%v)", rep.Applied(), rep.ReplicaErr())
		}
		time.Sleep(time.Millisecond)
	}

	select {
	case <-rep.Halted():
		t.Fatalf("replica in step with its primary halted: %v", rep.ReplicaErr())
	default:
	}

	primA.Close()
	var b []updatelog.Record
	for i, name := range []string{"b-0.xml", "b-1.xml", "b-2.xml"} {
		b = append(b, updatelog.Record{Kind: updatelog.KindInsert, Name: name, Data: []byte("<order/>"), Client: 77, Seq: uint64(i + 1)})
	}
	start(writeJournal(t, dir, "b.journal", b...), addr)

	err = awaitHalt(t, rep)
	if !errors.Is(err, wire.ErrBadRequest) || !strings.Contains(err.Error(), updatelog.ErrPosition.Error()) {
		t.Fatalf("replica stopped with %v, want the primary's refusal of its position", err)
	}
	if got, want := eng.docNames(), []string{"a-0.xml", "a-1.xml"}; !slices.Equal(got, want) || rep.Applied() != 2 {
		t.Fatalf("replica holds %v after %d applies, want %v after 2", got, rep.Applied(), want)
	}

	rc, err := client.Dial(rep.Addr().String(), client.Config{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if res, err := rc.Execute(ctx, core.Q1, nil); !errors.Is(err, wire.ErrShutdown) || !strings.Contains(err.Error(), "halted") {
		t.Fatalf("Q1 on the halted replica = %v, %v; want a refusal naming the halt", res.Items, err)
	}
	if _, err := rc.Explain(ctx, core.Q1, nil); !errors.Is(err, wire.ErrShutdown) || !strings.Contains(err.Error(), "halted") {
		t.Fatalf("explain on the halted replica = %v, want a refusal naming the halt", err)
	}
}

// serveJournal is a stub primary: it answers every ping, and every
// OpJournal pull from offset 0 with window and from anywhere else with
// nothing.
func serveJournal(t *testing.T, window []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					req, err := wire.ReadFrame(conn)
					if err != nil {
						return
					}
					resp := wire.Frame{Kind: byte(wire.StatusOK), ID: req.ID}
					if pull, err := wire.DecodeJournalPullRequest(req.Payload); wire.Op(req.Kind) == wire.OpJournal && err == nil && pull.Since == 0 {
						resp.Payload = window
					}
					out, _ := wire.AppendFrame(nil, resp)
					if _, err := conn.Write(out); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestReplicaRefusesADamagedWindow: a shipped window with one flipped
// byte in its second record is refused whole — its intact first record
// is not applied either, the replica's position stays at the start —
// and Err says why.
func TestReplicaRefusesADamagedWindow(t *testing.T) {
	path := writeJournal(t, t.TempDir(), "journal",
		updatelog.Record{Kind: updatelog.KindInsert, Name: "x-0.xml", Data: []byte("<order/>"), Client: 5, Seq: 1},
		updatelog.Record{Kind: updatelog.KindInsert, Name: "x-1.xml", Data: []byte("<order/>"), Client: 5, Seq: 2})
	window, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	window[len(window)-12] ^= 0x01 // inside the second record's document

	eng := newStub()
	rep := startReplica(t, eng, testDB(1), serveJournal(t, window))

	err = awaitHalt(t, rep)
	if !strings.Contains(err.Error(), "damaged") {
		t.Fatalf("replica stopped with %v, want the damaged window named", err)
	}
	if got := eng.docNames(); rep.Applied() != 0 || !slices.Equal(got, []string{"doc-000.xml"}) {
		t.Fatalf("replica applied %d records and holds %v, want none applied over its base", rep.Applied(), got)
	}
}
