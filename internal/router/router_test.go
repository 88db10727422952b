package router_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"xbench/internal/client"
	"xbench/internal/core"
	"xbench/internal/router"
	"xbench/internal/server"
	"xbench/internal/updatelog"
)

// stubEngine is an in-memory engine for router tests: Q1 with an update
// target id answers from the document map (update verification), Q8
// scatters — it returns one item per stored document — so a cross-shard
// union is countable and duplicates are detectable. An update (Apply)
// runs its durable step before it changes the map, as an engine's commit
// does, so a journaled stub shard journals.
type stubEngine struct {
	mu   sync.Mutex
	docs map[string][]byte
}

func newStub() *stubEngine { return &stubEngine{docs: map[string][]byte{}} }

func (s *stubEngine) Name() string                         { return "stub" }
func (s *stubEngine) Supports(core.Class, core.Size) error { return nil }
func (s *stubEngine) BuildIndexes([]core.IndexSpec) error  { return nil }
func (s *stubEngine) PageIO() int64                        { return 1 }
func (s *stubEngine) ColdReset()                           {}
func (s *stubEngine) Close() error                         { return nil }

func (s *stubEngine) Load(_ context.Context, db *core.Database) (core.LoadStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.docs = map[string][]byte{}
	for _, d := range db.Docs {
		s.docs[d.Name] = d.Data
	}
	return core.LoadStats{Documents: len(db.Docs), Bytes: db.Bytes()}, nil
}

func (s *stubEngine) Execute(_ context.Context, q core.QueryID, p core.Params) (core.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case q == core.Q20:
		return core.Result{}, core.ErrNoQuery
	case q == core.Q16:
		// doc($DOC) semantics, like the real engines: only the owner can
		// answer; everyone else hard-errors. A scatter would fail fail-fast.
		if doc, ok := s.docs[p.Get("DOC")]; ok {
			return core.Result{Items: []string{string(doc)}, OrderGuaranteed: true}, nil
		}
		return core.Result{}, fmt.Errorf("stub: document %q not found", p.Get("DOC"))
	case q == core.Q1:
		x := p.Get("X")
		if len(x) > 2 && (strings.HasPrefix(x, "OU") || strings.HasPrefix(x, "aU")) {
			for _, name := range []string{"order-update-" + x[2:] + ".xml", "article-update-" + x[2:] + ".xml"} {
				if doc, ok := s.docs[name]; ok {
					return core.Result{Items: []string{string(doc)}, OrderGuaranteed: true}, nil
				}
			}
			return core.Result{}, nil
		}
	}
	// Scatter probe: one item per stored document.
	names := make([]string, 0, len(s.docs))
	for name := range s.docs {
		names = append(names, name)
	}
	sort.Strings(names)
	return core.Result{Items: names, OrderGuaranteed: true}, nil
}

// Apply runs the update's durable step before it changes the map, as an
// engine's commit does.
func (s *stubEngine) Apply(_ context.Context, rec updatelog.Record, durable func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, exists := s.docs[rec.Name]
	switch {
	case rec.Kind == updatelog.KindInsert && exists:
		return fmt.Errorf("stub: document %s exists", rec.Name)
	case rec.Kind == updatelog.KindDelete && !exists:
		return fmt.Errorf("stub: document %s does not exist", rec.Name)
	}
	if durable != nil {
		if err := durable(); err != nil {
			return err
		}
	}
	if rec.Kind == updatelog.KindDelete {
		delete(s.docs, rec.Name)
	} else {
		s.docs[rec.Name] = rec.Data
	}
	return nil
}

func (s *stubEngine) InsertDocument(ctx context.Context, name string, data []byte) error {
	return s.Apply(ctx, updatelog.Record{Kind: updatelog.KindInsert, Name: name, Data: data}, nil)
}

func (s *stubEngine) ReplaceDocument(ctx context.Context, name string, data []byte) error {
	return s.Apply(ctx, updatelog.Record{Kind: updatelog.KindReplace, Name: name, Data: data}, nil)
}

func (s *stubEngine) DeleteDocument(ctx context.Context, name string) error {
	return s.Apply(ctx, updatelog.Record{Kind: updatelog.KindDelete, Name: name}, nil)
}

// testDB builds a database of n one-element documents.
func testDB(n int) *core.Database {
	db := &core.Database{Class: core.DCMD, Size: core.Small}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("doc-%03d.xml", i)
		db.Docs = append(db.Docs, core.Doc{Name: name, Data: []byte("<d n=\"" + name + "\"/>")})
	}
	return db
}

// startCluster boots n stub shards, each loaded in process with its ring
// partition of db as `xbench serve --shard=i/n` loads one, and a router
// over them.
func startCluster(t *testing.T, n int, db *core.Database, cfg router.Config) (*router.Router, []*server.Server) {
	t.Helper()
	ring := router.NewRing(n, 0)
	srvs := make([]*server.Server, n)
	shards := make([]router.Shard, n)
	loaded := 0
	for i := range srvs {
		eng := newStub()
		st, err := eng.Load(context.Background(), ring.Partition(db, i))
		if err != nil {
			t.Fatal(err)
		}
		loaded += st.Documents
		srvs[i] = server.New(eng, server.Config{})
		if err := srvs[i].Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srvs[i].Close() })
		shards[i] = router.Shard{Primary: srvs[i].Addr().String()}
	}
	if loaded != len(db.Docs) {
		t.Fatalf("loaded %d documents, want %d", loaded, len(db.Docs))
	}
	r, err := router.Dial(shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, srvs
}

// scatterNames runs the scatter probe and returns the document-name union.
func scatterNames(t *testing.T, r *router.Router) []string {
	t.Helper()
	res, err := r.Execute(context.Background(), core.Q8, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Items
}

// TestRouterLoadPartitionsAndScatters loads a 3-shard cluster, each
// shard its ring partition, and checks the partitioning invariants:
// every shard holds a non-empty slice, the scatter union is exactly the
// corpus, and no document appears twice. The router itself loads
// nothing: Load and BuildIndexes refuse with core.ErrServed.
func TestRouterLoadPartitionsAndScatters(t *testing.T) {
	db := testDB(60)
	r, _ := startCluster(t, 3, db, router.Config{})
	if _, err := r.Load(context.Background(), db); !errors.Is(err, core.ErrServed) {
		t.Fatalf("router Load: %v, want core.ErrServed", err)
	}
	if err := r.BuildIndexes(nil); !errors.Is(err, core.ErrServed) {
		t.Fatalf("router BuildIndexes: %v, want core.ErrServed", err)
	}

	if got, want := r.Name(), "router(3×stub)"; got != want {
		t.Fatalf("name %q, want %q", got, want)
	}
	items := scatterNames(t, r)
	if len(items) != 60 {
		t.Fatalf("scatter union has %d items, want 60", len(items))
	}
	seen := map[string]bool{}
	for _, it := range items {
		if seen[it] {
			t.Fatalf("document %s appears on more than one shard", it)
		}
		seen[it] = true
	}
	// Multi-shard unions cannot promise document order.
	res, _ := r.Execute(context.Background(), core.Q8, nil)
	if res.OrderGuaranteed {
		t.Fatal("multi-shard scatter claims OrderGuaranteed")
	}
	// Per-shard balance: with 60 docs on 3 shards nobody should be empty.
	m := r.Metrics().Snapshot()
	for i := 0; i < 3; i++ {
		if m.Counters[fmt.Sprintf("router.shard.%d.scatter", i)] == 0 {
			t.Fatalf("shard %d saw no scatter leg", i)
		}
	}
}

// TestRouterRoutesSingleDocOps drives the update cycle (insert, verify
// via routed Q1, replace, delete) and checks the routed ops pinned to one
// shard instead of scattering.
func TestRouterRoutesSingleDocOps(t *testing.T) {
	r, _ := startCluster(t, 3, testDB(12), router.Config{})
	ctx := context.Background()

	if err := r.InsertDocument(ctx, "order-update-5.xml", []byte("<order id=\"OU5\"/>")); err != nil {
		t.Fatal(err)
	}
	res, err := r.Execute(ctx, core.Q1, core.Params{"X": "OU5"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || !strings.Contains(res.Items[0], "OU5") {
		t.Fatalf("routed verification read: %+v", res)
	}
	if err := r.ReplaceDocument(ctx, "order-update-5.xml", []byte("<order id=\"OU5\" v=\"2\"/>")); err != nil {
		t.Fatal(err)
	}
	if err := r.DeleteDocument(ctx, "order-update-5.xml"); err != nil {
		t.Fatal(err)
	}
	res, err = r.Execute(ctx, core.Q1, core.Params{"X": "OU5"})
	if err != nil || len(res.Items) != 0 {
		t.Fatalf("read after delete: %+v, %v", res, err)
	}

	// All five ops routed: exactly one shard's routed counter moved per op
	// and no scatter legs were sent.
	m := r.Metrics().Snapshot()
	var routed, scatter int64
	for i := 0; i < 3; i++ {
		routed += m.Counters[fmt.Sprintf("router.shard.%d.routed", i)]
		scatter += m.Counters[fmt.Sprintf("router.shard.%d.scatter", i)]
	}
	if routed != 5 || scatter != 0 {
		t.Fatalf("routed=%d scatter=%d, want 5 routed and 0 scatter", routed, scatter)
	}
}

// TestRouterRoutesDocQueries pins the Q16 route: doc($DOC) is answered
// only by the document's owner (every other shard hard-errors "not
// found"), so the router must send it to that one shard. Every corpus
// document must round-trip under the default fail-fast policy — if Q16
// scattered, the non-owner errors would fail it.
func TestRouterRoutesDocQueries(t *testing.T) {
	db := testDB(30)
	r, _ := startCluster(t, 3, db, router.Config{})
	ctx := context.Background()

	for _, d := range db.Docs {
		res, err := r.Execute(ctx, core.Q16, core.Params{"DOC": d.Name})
		if err != nil {
			t.Fatalf("Q16 %s: %v", d.Name, err)
		}
		if len(res.Items) != 1 || res.Items[0] != string(d.Data) {
			t.Fatalf("Q16 %s: %+v", d.Name, res)
		}
	}
	m := r.Metrics().Snapshot()
	var routed, scatter int64
	for i := 0; i < 3; i++ {
		routed += m.Counters[fmt.Sprintf("router.shard.%d.routed", i)]
		scatter += m.Counters[fmt.Sprintf("router.shard.%d.scatter", i)]
	}
	if routed != 30 || scatter != 0 {
		t.Fatalf("routed=%d scatter=%d, want 30 routed and 0 scatter", routed, scatter)
	}
}

// TestRouterIsStateless pins that placement is the ring's alone: a
// document inserted through one Router is replaced, read back by Q16 and
// deleted through a freshly dialled Router that never loaded or routed
// anything, so no per-document state in the first one can have mattered.
func TestRouterIsStateless(t *testing.T) {
	first, srvs := startCluster(t, 3, testDB(12), router.Config{})
	ctx := context.Background()
	shards := make([]router.Shard, len(srvs))
	for i, srv := range srvs {
		shards[i] = router.Shard{Primary: srv.Addr().String()}
	}

	// Enough names that every shard owns at least one.
	ring, owners := router.NewRing(3, 0), map[int]bool{}
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("order-update-%d.xml", i)
		owners[ring.Owner(name)] = true
		if err := first.InsertDocument(ctx, name, []byte("<v1/>")); err != nil {
			t.Fatal(err)
		}
	}
	if len(owners) != 3 {
		t.Fatalf("test names landed on %d of 3 shards; enlarge the sample", len(owners))
	}

	second, err := router.Dial(shards, router.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { second.Close() })
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("order-update-%d.xml", i)
		if err := second.ReplaceDocument(ctx, name, []byte("<v2/>")); err != nil {
			t.Fatalf("replace %s: %v", name, err)
		}
		res, err := second.Execute(ctx, core.Q16, core.Params{"DOC": name})
		if err != nil || len(res.Items) != 1 || res.Items[0] != "<v2/>" {
			t.Fatalf("Q16 %s through the second router = %v, %v", name, res.Items, err)
		}
		if err := second.DeleteDocument(ctx, name); err != nil {
			t.Fatalf("delete %s: %v", name, err)
		}
	}
	// Replaced in place and deleted where they lay: the corpus is the
	// loaded one again, seen identically through either router.
	for _, r := range []*router.Router{first, second} {
		if items := scatterNames(t, r); len(items) != 12 {
			t.Fatalf("scatter union has %d documents, want the 12 loaded ones: %v", len(items), items)
		}
	}
}

// TestScatterPartialFailure kills one shard's primary. With no replica
// the scatter fails fast: no partial union is ever returned. With a
// replica the read client fails over to it and the scatter returns the
// whole union.
func TestScatterPartialFailure(t *testing.T) {
	db := testDB(30)
	ctx := context.Background()

	t.Run("fail-fast", func(t *testing.T) {
		r, srvs := startCluster(t, 3, db, router.Config{
			Client: client.Config{Retries: -1, DialTimeout: 500 * time.Millisecond},
		})
		// A decline is not a shard failure: every shard answers Q20 with
		// ErrNoQuery, and that is what the scatter returns.
		if _, err := r.Execute(ctx, core.Q20, nil); !errors.Is(err, core.ErrNoQuery) {
			t.Fatalf("Q20: %v, want ErrNoQuery", err)
		}
		srvs[1].Close()
		if res, err := r.Execute(ctx, core.Q8, nil); err == nil {
			t.Fatalf("scatter with a dead shard answered %d items under fail-fast", len(res.Items))
		}
	})

	t.Run("replica", func(t *testing.T) {
		ring := router.NewRing(3, 0)
		shards := make([]router.Shard, 3)
		prims := make([]*server.Server, 3)
		for i := range shards {
			jp := filepath.Join(t.TempDir(), "journal.log")
			prim, _, err := server.Reopen(newStub(), ring.Partition(db, i), nil, jp, server.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := prim.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { prim.Close() })
			prims[i] = prim
			shards[i] = router.Shard{Primary: prim.Addr().String()}
		}
		rep := startReplica(t, newStub(), ring.Partition(db, 1), shards[1].Primary)
		shards[1].Replicas = []string{rep.Addr().String()}
		r, err := router.Dial(shards, router.Config{Client: client.Config{FailThreshold: 1, Backoff: time.Millisecond}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })

		prims[1].Close()
		items := scatterNames(t, r)
		sort.Strings(items)
		want := make([]string, len(db.Docs))
		for i, d := range db.Docs {
			want[i] = d.Name
		}
		if !slices.Equal(items, want) {
			t.Fatalf("scatter with shard 1 on its replica = %d items %v, want the 30 loaded documents", len(items), items)
		}
		if fo := r.Metrics().Snapshot().Counters["router.shard.1.failovers"]; fo == 0 {
			t.Fatal("shard 1 answered without a failover to its replica")
		}
	})
}

// TestRoutedReadFailsOverToReplica runs a primary+replica shard, kills
// the primary, and checks routed reads keep answering via the replica.
func TestRoutedReadFailsOverToReplica(t *testing.T) {
	ctx := context.Background()

	// Journaled primary (replicas ship its journal).
	jp := filepath.Join(t.TempDir(), "journal.log")
	prim, _, err := server.Reopen(newStub(), testDB(1), nil, jp, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := prim.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prim.Close() })

	rep := startReplica(t, newStub(), testDB(1), prim.Addr().String())

	r, err := router.Dial(
		[]router.Shard{{Primary: prim.Addr().String(), Replicas: []string{rep.Addr().String()}}},
		router.Config{Client: client.Config{FailThreshold: 1, Backoff: time.Millisecond}},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })

	// Write through the router, wait for the replica to apply it.
	if err := r.InsertDocument(ctx, "order-update-9.xml", []byte("<order id=\"OU9\"/>")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rep.Applied() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("replica never applied the journaled insert (applied=%d, err=%v)", rep.Applied(), rep.ReplicaErr())
		}
		time.Sleep(time.Millisecond)
	}

	// Kill the primary. The routed read must fail over to the replica.
	prim.Close()
	res, err := r.Execute(ctx, core.Q1, core.Params{"X": "OU9"})
	if err != nil {
		t.Fatalf("routed read with dead primary: %v", err)
	}
	if len(res.Items) != 1 || !strings.Contains(res.Items[0], "OU9") {
		t.Fatalf("failover read answered %+v", res)
	}

	// Updates cannot fail over — the replica is read-only. The router
	// must surface an error, not silently fork the replica.
	uctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if err := r.InsertDocument(uctx, "order-update-10.xml", []byte("<order/>")); err == nil {
		t.Fatal("update succeeded with the primary dead")
	}
}

// TestReplicaShipsJournal checks the shipping pipeline end to end: keyed
// updates on the primary appear on the replica in order, reads on the
// replica see them, and writes to the replica are rejected.
func TestReplicaShipsJournal(t *testing.T) {
	ctx := context.Background()
	jp := filepath.Join(t.TempDir(), "journal.log")
	prim, _, err := server.Reopen(newStub(), testDB(0), nil, jp, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := prim.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prim.Close() })

	rep := startReplica(t, newStub(), testDB(0), prim.Addr().String())

	pc, err := client.Dial(prim.Addr().String(), client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })

	const updates = 20
	for i := 0; i < updates; i++ {
		name := fmt.Sprintf("order-update-%d.xml", i)
		if err := pc.InsertDocument(ctx, name, []byte(fmt.Sprintf("<order id=\"OU%d\"/>", i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for rep.Applied() < updates {
		if time.Now().After(deadline) {
			t.Fatalf("replica applied %d/%d (err=%v)", rep.Applied(), updates, rep.ReplicaErr())
		}
		time.Sleep(time.Millisecond)
	}

	rc, err := client.Dial(rep.Addr().String(), client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	res, err := rc.Execute(ctx, core.Q1, core.Params{"X": "OU7"})
	if err != nil || len(res.Items) != 1 {
		t.Fatalf("replica read: %+v, %v", res, err)
	}
	if err := rc.InsertDocument(ctx, "x.xml", []byte("<x/>")); !errors.Is(err, core.ErrReadOnly) {
		t.Fatalf("replica write: %v, want ErrReadOnly", err)
	}
	if err := rep.ReplicaErr(); err != nil {
		t.Fatalf("replica apply error: %v", err)
	}
}
