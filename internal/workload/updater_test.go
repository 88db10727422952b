package workload

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"xbench/internal/core"
	"xbench/internal/engines/native"
	"xbench/internal/updatelog"
)

// TestUpdateWorkload runs U1, U2 and U3 through one Updater on every
// engine and both multi-document classes: each op is the one asked for,
// is timed, and leaves what it acknowledged — visible after U1 and U2,
// the replacement's total on DC/MD, gone after U3. On the native engine
// the document count moves with it.
func TestUpdateWorkload(t *testing.T) {
	ctx := context.Background()
	for _, class := range []core.Class{core.DCMD, core.TCMD} {
		db := tinyDB(t, class)
		for _, e := range allEngines() {
			t.Run(class.String()+"/"+e.Name(), func(t *testing.T) {
				defer e.Close()
				if _, _, err := LoadAndIndex(ctx, e, db); err != nil {
					t.Fatal(err)
				}
				count := documentCount(t, e)
				before := count()
				u, err := NewUpdater(class, 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, op := range UpdateOps {
					did, d, err := u.Apply(ctx, e, op)
					if err != nil {
						t.Fatalf("%s: %v", op, err)
					}
					if did != op {
						t.Fatalf("asked for %s, issued %s", op, did)
					}
					if d <= 0 {
						t.Fatalf("%s: no time measured", op)
					}
					if err := u.Check(ctx, e); err != nil {
						t.Fatalf("after %s: %v", op, err)
					}
					want := before + 1
					if op == U3 {
						want = before
					}
					if got := count(); got >= 0 && got != want {
						t.Fatalf("after %s: %d documents, want %d", op, got, want)
					}
				}
				if err := u.Finish(ctx, e); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// documentCount returns a counter of e's documents: the native engine's
// view count, or -1 on an engine without one.
func documentCount(t *testing.T, e core.Engine) func() int {
	n, ok := e.(*native.Engine)
	if !ok {
		return func() int { return -1 }
	}
	return func() int {
		v, release, err := n.View()
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		return v.DocumentCount()
	}
}

func TestUpdateWorkloadRejectsSingleDocumentClasses(t *testing.T) {
	if _, err := NewUpdater(core.TCSD, 0, 1); err == nil {
		t.Fatal("update workload accepted a single-document class")
	}
}

// TestUpdaterFallsBackToU1: with no live document a U2 or U3 has no
// target, so the Updater inserts instead and says so.
func TestUpdaterFallsBackToU1(t *testing.T) {
	ctx := context.Background()
	e := newDocStub()
	u, err := NewUpdater(core.DCMD, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct{ ask, want UpdateOp }{
		{U2, U1}, // nothing live: inserts OU1
		{U3, U3}, // deletes OU1
		{U3, U1}, // nothing live again: inserts OU3, the client's next
		{U2, U2}, // replaces OU3
	} {
		did, _, err := u.Apply(ctx, e, step.ask)
		if err != nil {
			t.Fatalf("%s: %v", step.ask, err)
		}
		if did != step.want {
			t.Fatalf("asked for %s, issued %s, want %s", step.ask, did, step.want)
		}
	}
	if got := e.names(); strings.Join(got, " ") != "order-update-3.xml" {
		t.Fatalf("live documents %v, want order-update-3.xml alone", got)
	}
	if err := u.Check(ctx, e); err != nil {
		t.Fatal(err)
	}
}

// TestUpdaterFinishRestoresCorpus: after a run that leaves documents
// live, Finish deletes them, and the engine answers every query of the
// class as it did when loaded.
func TestUpdaterFinishRestoresCorpus(t *testing.T) {
	ctx := context.Background()
	for _, class := range []core.Class{core.DCMD, core.TCMD} {
		db := tinyDB(t, class)
		e := native.New(0)
		if _, _, err := LoadAndIndex(ctx, e, db); err != nil {
			t.Fatal(err)
		}
		answers := func() map[core.QueryID]int {
			out := map[core.QueryID]int{}
			for _, q := range QueryIDs(class) {
				res, err := e.Execute(ctx, q, Params(class))
				if err != nil {
					t.Fatalf("%s %s: %v", class, q, err)
				}
				out[q] = len(res.Items)
			}
			return out
		}
		count := documentCount(t, e)
		loaded, want := count(), answers()
		u, err := NewUpdater(class, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []UpdateOp{U1, U1, U1, U2, U3, U1, U2} {
			if _, _, err := u.Apply(ctx, e, op); err != nil {
				t.Fatalf("%s %s: %v", class, op, err)
			}
		}
		if got := count(); got != loaded+3 {
			t.Fatalf("%s: %d documents before Finish, want %d", class, got, loaded+3)
		}
		if err := u.Finish(ctx, e); err != nil {
			t.Fatal(err)
		}
		if got := count(); got != loaded {
			t.Errorf("%s: %d documents after Finish, loaded %d", class, got, loaded)
		}
		got := answers()
		for q, n := range want {
			if got[q] != n {
				t.Errorf("%s %s: %d items after Finish, %d as loaded", class, q, got[q], n)
			}
		}
		e.Close()
	}
}

// TestUpdaterCatchesAnUnappliedUpdate: an engine that acknowledges a U2
// without applying it still answers the old revision's total, and one
// that acknowledges a U3 without applying it still answers at all; the
// run-end check must say so.
func TestUpdaterCatchesAnUnappliedUpdate(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		drop UpdateOp
		want string
	}{
		{U2, "OU0 revision 1"},
		{U3, "OU0 deleted"},
	} {
		e := newDocStub()
		e.drop = tc.drop
		u, err := NewUpdater(core.DCMD, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []UpdateOp{U1, tc.drop} {
			if _, _, err := u.Apply(ctx, e, op); err != nil {
				t.Fatalf("%s: %v", op, err)
			}
		}
		if err := u.Finish(ctx, e); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s dropped: Finish = %v, want %q reported", tc.drop, err, tc.want)
		}
	}
}

// docStub is an engine holding documents by name, whose Q1 answers the
// document a root id names whole. It acknowledges a replace (drop U2) or
// a delete (drop U3) without applying it.
type docStub struct {
	mu   sync.Mutex
	docs map[string][]byte
	drop UpdateOp
}

func newDocStub() *docStub { return &docStub{docs: map[string][]byte{}} }

func (s *docStub) Name() string                         { return "doc stub" }
func (s *docStub) Supports(core.Class, core.Size) error { return nil }
func (s *docStub) BuildIndexes([]core.IndexSpec) error  { return nil }
func (s *docStub) ColdReset()                           {}
func (s *docStub) PageIO() int64                        { return 0 }
func (s *docStub) Close() error                         { return nil }
func (s *docStub) Load(context.Context, *core.Database) (core.LoadStats, error) {
	return core.LoadStats{}, nil
}

func (s *docStub) Apply(_ context.Context, rec updatelog.Record, _ func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case rec.Kind == updatelog.KindInsert:
		if _, ok := s.docs[rec.Name]; ok {
			return errors.New("document already exists")
		}
		s.docs[rec.Name] = rec.Data
	case rec.Kind == updatelog.KindReplace && s.drop != U2:
		s.docs[rec.Name] = rec.Data
	case rec.Kind == updatelog.KindDelete && s.drop != U3:
		delete(s.docs, rec.Name)
	}
	return nil
}

func (s *docStub) InsertDocument(ctx context.Context, name string, data []byte) error {
	return s.Apply(ctx, updatelog.Record{Kind: updatelog.KindInsert, Name: name, Data: data}, nil)
}

func (s *docStub) ReplaceDocument(ctx context.Context, name string, data []byte) error {
	return s.Apply(ctx, updatelog.Record{Kind: updatelog.KindReplace, Name: name, Data: data}, nil)
}

func (s *docStub) DeleteDocument(ctx context.Context, name string) error {
	return s.Apply(ctx, updatelog.Record{Kind: updatelog.KindDelete, Name: name}, nil)
}

func (s *docStub) Execute(_ context.Context, q core.QueryID, p core.Params) (core.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, name, ok := core.DocOf(p["X"])
	if q != core.Q1 || !ok {
		return core.Result{}, core.ErrNoQuery
	}
	if doc, ok := s.docs[name]; ok {
		return core.Result{Items: []string{string(doc)}}, nil
	}
	return core.Result{}, nil
}

func (s *docStub) names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for n := range s.docs {
		out = append(out, n)
	}
	return out
}
