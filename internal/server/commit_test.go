package server

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"

	"xbench/internal/client"
	"xbench/internal/core"
	"xbench/internal/engines/native"
	"xbench/internal/gen"
	"xbench/internal/updatelog"
	"xbench/internal/wire"
	"xbench/internal/workload"
)

// reopenDCMD serves a small DC/MD database on e, recovered from a fresh
// journal at path. Cleanup closes the server.
func reopenDCMD(t *testing.T, e core.Engine, path string) (*Server, *core.Database) {
	t.Helper()
	db, err := gen.Config{DictEntries: 40, Articles: 6, Items: 20, Orders: 40}.Generate(core.DCMD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := Reopen(e, db, workload.Indexes(core.DCMD), path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, db
}

// insertU1 sends the update workload's first insert through the update
// path.
func insertU1(s *Server) wire.Frame {
	name, data := workload.UpdateDoc(core.DCMD, 1, 0)
	return s.executeUpdate(updatelog.AppendRecord(nil, updatelog.Record{Kind: updatelog.KindInsert, Name: name, Data: data, Client: 1, Seq: 1}), 0)
}

// TestJournalFailureLeavesUpdateInvisible: a served update becomes
// visible only once its journal record is durable. With the journal
// closed under the server the append fails, so the insert is not
// acknowledged, no reader ever sees the document — the engine answers
// the not-loaded error instead — and a restart on the same journal
// replays nothing: the served state is one a restart reproduces.
func TestJournalFailureLeavesUpdateInvisible(t *testing.T) {
	path := filepath.Join(t.TempDir(), "updates.journal")
	e := native.New(64)
	s, db := reopenDCMD(t, e, path)
	if err := s.journal.Close(); err != nil {
		t.Fatal(err)
	}
	if f := insertU1(s); wire.Status(f.Kind) == wire.StatusOK {
		t.Fatal("insert acknowledged with the journal closed")
	}
	id := workload.UpdateTargetID(core.DCMD, 1)
	if res, err := e.Execute(context.Background(), core.Q1, core.Params{"X": id}); err == nil && len(res.Items) != 0 {
		t.Fatalf("Q1 for %s returns %d item(s) of an update its journal never held", id, len(res.Items))
	}
	restarted, n, err := Reopen(native.New(64), db, nil, path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if n != 0 {
		t.Fatalf("restart replayed %d records, want 0", n)
	}
}

// stepless applies every update without running the durable step it is
// given.
type stepless struct{ core.Engine }

func (stepless) Load(context.Context, *core.Database) (core.LoadStats, error) {
	return core.LoadStats{}, nil
}
func (stepless) BuildIndexes([]core.IndexSpec) error                         { return nil }
func (stepless) Apply(context.Context, updatelog.Record, func() error) error { return nil }
func (stepless) Close() error                                                { return nil }

// TestJournaledServerRefusesAStepSkipped: a journaled server whose
// engine reports an update applied without having run the durable step
// does not acknowledge it, and the journal stays empty — a journal never
// misses an acknowledged update.
func TestJournaledServerRefusesAStepSkipped(t *testing.T) {
	s, _ := reopenDCMD(t, stepless{}, filepath.Join(t.TempDir(), "updates.journal"))
	if f := insertU1(s); wire.Status(f.Kind) != wire.StatusInternal {
		t.Fatalf("insert past a skipped durable step: status %d (%s), want StatusInternal", f.Kind, f.Payload)
	}
	if n := s.journal.Records(); n != 0 {
		t.Fatalf("journal holds %d records, want 0", n)
	}
}

// TestClientLoadCannotUndoAnAcknowledgedUpdate: a served engine holds
// the database its server loaded, and a client cannot replace it. A
// journaled native DC/MD server acknowledges a client's U1; a client
// Load is then refused, and Q1 still returns the inserted document —
// the state a restart on the same journal would reproduce.
func TestClientLoadCannotUndoAnAcknowledgedUpdate(t *testing.T) {
	s, db := reopenDCMD(t, native.New(64), filepath.Join(t.TempDir(), "updates.journal"))
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(s.Addr().String(), client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	name, data := workload.UpdateDoc(core.DCMD, 1, 0)
	if err := c.InsertDocument(ctx, name, data); err != nil {
		t.Fatal(err)
	}
	q1 := core.Params{"X": workload.UpdateTargetID(core.DCMD, 1)}
	if res, err := c.Execute(ctx, core.Q1, q1); err != nil || len(res.Items) != 1 {
		t.Fatalf("Q1 after the acknowledged insert: %d item(s), %v; want 1", len(res.Items), err)
	}
	if _, _, err := workload.LoadAndIndex(ctx, c, db); err == nil {
		t.Error("a client load over a served database was accepted")
	}
	if res, err := c.Execute(ctx, core.Q1, q1); err != nil || len(res.Items) != 1 {
		t.Fatalf("Q1 after the refused load: %d item(s), %v; want the acknowledged document", len(res.Items), err)
	}
}

// counter counts the updates that reach it and applies each as its
// durable step alone.
type counter struct {
	stepless
	calls int
}

func (c *counter) Apply(_ context.Context, _ updatelog.Record, durable func() error) error {
	c.calls++
	return durable()
}

// TestMalformedUpdatesAreRefused: an OpUpdate payload whose record fails
// its checksum, has bytes after it or carries the zero key is a bad
// request: the engine is not called, nothing is journaled and the dedup
// table does not change. The intact record they were made from then
// applies, so each refusal was for what it names.
func TestMalformedUpdatesAreRefused(t *testing.T) {
	e := &counter{}
	s, _ := reopenDCMD(t, e, filepath.Join(t.TempDir(), "updates.journal"))
	rec := updatelog.Record{Kind: updatelog.KindInsert, Name: "a.xml", Data: []byte("<a/>"), Client: 3, Seq: 1}
	good := updatelog.AppendRecord(nil, rec)
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 1
	rec.Client = 0
	send := func(b []byte) wire.Frame {
		var scratch []byte
		f, done := s.handle(wire.OpUpdate, append(wire.AppendUpdate(nil, time.Second), b...), &scratch)
		done()
		return f
	}
	for name, b := range map[string][]byte{
		"checksum": flipped,
		"trailing": append(bytes.Clone(good), 0),
		"zero key": updatelog.AppendRecord(nil, rec),
	} {
		if f := send(b); wire.Status(f.Kind) != wire.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want StatusBadRequest", name, f.Kind, f.Payload)
		}
	}
	dedupLen := func() int {
		s.dedup.mu.Lock()
		defer s.dedup.mu.Unlock()
		return len(s.dedup.clients)
	}
	if e.calls != 0 || s.journal.Records() != 0 || dedupLen() != 0 {
		t.Fatalf("after the refusals: %d engine calls, %d journal records, %d dedup clients; want none", e.calls, s.journal.Records(), dedupLen())
	}
	if f := send(good); wire.Status(f.Kind) != wire.StatusOK {
		t.Fatalf("the intact record: status %d (%s)", f.Kind, f.Payload)
	}
	if e.calls != 1 || s.journal.Records() != 1 || dedupLen() != 1 {
		t.Fatalf("after the intact record: %d engine calls, %d journal records, %d dedup clients; want 1 each", e.calls, s.journal.Records(), dedupLen())
	}
}
