// Package engbase is the lifecycle all four engines share. An engine
// embeds *Base and supplies a Store — its on-disk layout, which only
// mutates, and through the View it freezes its query path — and Base
// owns everything that is the same for every storage strategy: the
// writers' latch, the pager, the per-view plan cells, and the protocols
// built on them (DESIGN.md §9 load and query, §10 updates, §15 snapshot
// reads). They are written once, here, so a rule such as "nothing runs
// against a store that was never loaded", "a refused update leaves no
// trace" or "a query is planned over the view it runs against" cannot
// drift between engines. The commit is one of them: a Store's hooks only
// mutate, and publish is the one place a mutation — a load, an index
// build, an update — is frozen, synced and made visible, or the engine
// stops.
//
// What is committed has one owner, the pager: the call that commits an
// epoch (EndMutation, AdvanceEpoch) takes the publication of that epoch —
// the store's frozen view and what every read of it shares, see
// publication — and PinSnapshot hands a reader the publication with the
// pin, both under the one mutex they already took. No reader reads it
// anywhere else — Base remembers the last one only for its writer, whose
// next commit carries the plans that still hold (DESIGN.md §18) — so
// there is nothing to reconcile per read and no latch anywhere on the read
// path: every query and every Explain runs against the view it pinned,
// and an engine with nothing published answers the not-loaded error.
package engbase

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"xbench/internal/core"
	"xbench/internal/metrics"
	"xbench/internal/pager"
	"xbench/internal/plan"
	"xbench/internal/queries"
	"xbench/internal/updatelog"
	"xbench/internal/xmldom"
)

// View is the read surface of a Store: the store frozen at one commit
// epoch, immutable, and how a planned query runs against it. Readers that
// pinned its epoch call it concurrently, without the latch; it holds no
// reference to its store, so a read reaches nothing a writer changes.
type View interface {
	// Class is the class whose query catalog applies, Stats what the cost
	// model reads: Base takes them once per commit.
	Class() core.Class
	Stats() plan.StatValues
	// Exec runs the planned query ph. Base fills in Result.PageIO.
	Exec(ctx context.Context, ph *plan.Physical, p core.Params) (core.Result, error)
	// Explain returns the tree Exec runs for ph, drawn by the engine from
	// the same decisions Exec takes: the evaluator over its access path
	// on the native engine, the operator tree on the others.
	Explain(ph *plan.Physical) (*core.PlanNode, error)
}

// Store is the part of an engine that is its own: how documents are laid
// out over the pager. It only mutates; V is what reads it.
//
// Base calls every method except Name and Supports with the engine latch
// held exclusively, and only Name, Supports, Reset and LoadDocs on a
// store that is not loaded, so a Store does no locking and no "is it
// loaded" checks of its own.
type Store[V View] interface {
	// Name and Supports are core.Engine's.
	Name() string
	Supports(c core.Class, s core.Size) error

	// Reset empties the store: files truncated, volatile maps dropped.
	Reset() error
	// LoadDocs bulk-loads db into the freshly reset store, taking the
	// parsed documents in database order from ParseDocs. The syncs in
	// it are the load's own — the per-document commits the paper's Table 4
	// prices — and leave nothing dirty, so Base fills in LoadStats.PageIO
	// when it returns and the commit that follows writes nothing more.
	LoadDocs(ctx context.Context, db *core.Database) (core.LoadStats, error)

	// Freeze returns the store's immutable read surface at the commit
	// epoch the open mutation (or the load) is about to commit. It
	// flushes the heap tails the mutation dirtied into the pool, and only
	// those; Base syncs the pager after it.
	Freeze(epoch uint64) (V, error)
	// BuildIndexes creates the Table 3 value indexes among specs that
	// apply to the loaded class.
	BuildIndexes(specs []core.IndexSpec) error

	// Exists reports whether a document is stored under name.
	Exists(name string) bool
	// ApplyInsert stores a document, data parsed into rec, and ApplyDelete
	// removes a stored one. Like BuildIndexes they only mutate: no hook
	// syncs, and an error from any of them stops the engine (see
	// publish). Their ctx is never cancelled: they run inside an open
	// mutation bracket, and a hook that stopped partway would stop the
	// engine. rec is the hook's until it returns; what the store keeps
	// of it, it copies.
	ApplyInsert(ctx context.Context, name string, data []byte, rec *xmldom.Record) error
	ApplyDelete(ctx context.Context, name string) error
}

// Validator is implemented by a Store that cannot hold every well-formed
// document. Validate reports whether it can hold the one parsed into
// rec; it runs before the mutation bracket opens, so a refused update
// leaves no trace, where an ApplyInsert that refused it would stop the
// engine.
type Validator interface {
	Validate(rec *xmldom.Record) error
}

// Base is the embedded half of an engine; see the package comment.
// Execute, Explain, PageIO, Pager and Metrics are safe from many
// goroutines and never take the latch; every other method takes it,
// serializing writers, while readers keep running against the epoch
// they pinned.
type Base[V View] struct {
	mu sync.Mutex
	p  *pager.Pager
	s  Store[V]
	// loaded is set by a successful Load and cleared by reset, a failed
	// mutation (publish) and Close: it gates the writers the way the
	// published view gates the readers. Guarded by mu.
	loaded bool
	// last is the publication of the committed epoch, for the next commit
	// to carry plan cells from (publish), or nil when nothing is
	// published. Only the writer reads it; guarded by mu.
	last *publication[V]
	// cellsPlanned and cellsCarried count the plan cells a reader filled
	// by planning and those a commit carried over (plan.cell.*), in the
	// registry the pager had at the last reset. Guarded by mu.
	cellsPlanned, cellsCarried *metrics.Counter
	// rec is what an update parses its document into, reused from one
	// update to the next. Guarded by mu.
	rec xmldom.Record
}

// publication is what one commit publishes, as the pager's view of the
// epoch: the store's frozen read surface and what every read of it would
// otherwise work out again — the planner's statistics and the plans
// already made over them. Only the plan cells change after the commit,
// each once, from empty to a plan.
type publication[V View] struct {
	view  V
	stats plan.StatValues
	// plans memoizes, by QueryID, the plans over stats: a plan the
	// previous publication held that still Holds over stats (carry), or
	// one a reader planned over them.
	plans   [core.Q20 + 1]atomic.Pointer[planCell]
	planned *metrics.Counter
}

// planCell is a plan and, once Explain asked for it, the view's tree of
// it, which the cell's later Explains hand out again.
type planCell struct {
	ph   *plan.Physical
	tree atomic.Pointer[core.PlanNode]
}

// plan returns the physical plan of q over the published view: from q's
// cell, or planned now and stored in it.
func (pub *publication[V]) plan(q core.QueryID) (*planCell, error) {
	if q < 0 || int(q) >= len(pub.plans) {
		return nil, core.ErrNoQuery
	}
	if c := pub.plans[q].Load(); c != nil {
		return c, nil
	}
	def := queries.Lookup(pub.view.Class(), q)
	if def == nil {
		return nil, core.ErrNoQuery
	}
	ph, err := plan.Plan(def, pub.stats)
	if err != nil {
		return nil, err
	}
	c := &planCell{ph: ph}
	pub.plans[q].Store(c) // racing planners store equal plans
	pub.planned.Inc()
	return c, nil
}

// carry copies into pub's cells every plan of prev's that Holds over
// pub's statistics — what plan.Plan would build over them anyway — and
// returns how many it copied. A cell of prev a reader fills after the copy
// is left behind, and pub's reader plans it again.
func (pub *publication[V]) carry(prev *publication[V]) int64 {
	if prev == nil {
		return 0
	}
	var n int64
	for q := range prev.plans {
		if c := prev.plans[q].Load(); c != nil && c.ph.Holds(pub.stats) {
			pub.plans[q].Store(c)
			n++
		}
	}
	return n
}

// New returns the base of an empty engine over s, whose files live on p:
// an engine creates its Store's files on a pager.New first and then hands
// both over. New starts nothing — an engine has no goroutine of its own.
func New[V View](p *pager.Pager, s Store[V]) *Base[V] {
	return &Base[V]{p: p, s: s}
}

// Name implements core.Engine.
func (b *Base[V]) Name() string { return b.s.Name() }

// Supports implements core.Engine.
func (b *Base[V]) Supports(c core.Class, s core.Size) error { return b.s.Supports(c, s) }

// Pager exposes the engine's pager for fault injection and its counters.
func (b *Base[V]) Pager() *pager.Pager { return b.p }

// Metrics returns the engine's metrics registry, shared by its pager,
// indexes and query path.
func (b *Base[V]) Metrics() *metrics.Registry { return b.p.Metrics() }

// PageIO implements core.Engine. Lock-free: safe concurrently with
// Execute.
func (b *Base[V]) PageIO() int64 { return b.p.Stats().IO() }

// notLoaded is the one answer to any operation that needs a loaded
// store: before the first successful Load, after a failed one, after
// Close.
func (b *Base[V]) notLoaded(op string) error {
	return fmt.Errorf("%s: %s before Load", b.s.Name(), op)
}

// publish ends every mutation of the store — a load, an index build, an
// update — and is the only place one becomes durable and visible: freeze
// the store at epoch (which flushes the heap tails the mutation dirtied),
// sync the pager, and commit the epoch with the publication of that view
// through commit — EndMutation inside a bracket, AdvanceEpoch after a
// load. Freezing before the commit is what lets epoch and view change
// together. err is what the mutation's own hooks returned, and there is
// one failure rule: if they, Freeze or the sync failed, the epoch is
// committed with nothing to read and the engine stops — the store may
// hold half the mutation and its volatile maps may disagree with its
// pages, so every operation answers the not-loaded error until the next
// Load rebuilds both (after a crash, the restart's: a new engine loads the
// database and replays the server's journal). The caller holds the latch.
func (b *Base[V]) publish(epoch uint64, commit func(view any) uint64, err error) error {
	var v V
	if err == nil {
		v, err = b.s.Freeze(epoch)
	}
	if err == nil {
		err = b.p.SyncAll()
	}
	if err != nil {
		b.loaded = false
		b.last = nil
		commit(nil)
		return err
	}
	pub := &publication[V]{view: v, stats: v.Stats(), planned: b.cellsPlanned}
	b.cellsCarried.Add(pub.carry(b.last))
	b.last = pub
	commit(pub)
	return nil
}

// reset empties the engine so Load is idempotent: a repeated or resumed
// load never sees leftovers from an earlier attempt. The publication is
// withdrawn first, so no reader is handed a view into truncated files.
func (b *Base[V]) reset() error {
	b.p.AdvanceEpoch(nil)
	b.loaded = false
	b.last = nil
	reg := b.p.Metrics() // a facade's WithMetrics replaces the one of New
	b.cellsPlanned, b.cellsCarried = reg.Counter("plan.cell.planned"), reg.Counter("plan.cell.carried")
	return b.s.Reset()
}

// abortLoad handles a mid-load failure: after a crash the machine is down
// and cleanup is impossible (a restart, on a new engine, is the only path
// forward); any other failure truncates the store so the database stays
// empty and loadable.
func (b *Base[V]) abortLoad(err error) error {
	if pager.IsCrash(err) {
		return err
	}
	_ = b.reset() // best-effort; the original error wins
	return err
}

// Load implements core.Engine. A failed load leaves an empty, loadable
// database (see abortLoad). Load drains pinned snapshots before
// truncating: a reader holding a pre-load snapshot would otherwise race
// the wholesale truncate, whose pre-images are deliberately not
// versioned.
func (b *Base[V]) Load(ctx context.Context, db *core.Database) (core.LoadStats, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.s.Supports(db.Class, db.Size); err != nil {
		return core.LoadStats{}, err
	}
	b.p.BlockPins()
	defer b.p.UnblockPins()
	if err := b.reset(); err != nil {
		return core.LoadStats{}, err
	}
	before := b.p.Stats().IO()
	st, err := b.s.LoadDocs(ctx, db)
	if err != nil {
		return st, b.abortLoad(err)
	}
	st.PageIO = b.p.Stats().IO() - before
	b.loaded = true
	if err := b.publish(b.p.SnapshotEpoch()+1, b.p.AdvanceEpoch, nil); err != nil {
		return st, b.abortLoad(err)
	}
	return st, nil
}

// BuildIndexes implements core.Engine, as one mutation: index pages
// written over existing ones are versioned like an update's.
func (b *Base[V]) BuildIndexes(specs []core.IndexSpec) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.loaded {
		return b.notLoaded("BuildIndexes")
	}
	epoch := b.p.BeginMutation()
	return b.publish(epoch, b.p.EndMutation, b.s.BuildIndexes(specs))
}

// pinned is the first half of the read protocol, for the operation named
// op: pin the committed epoch, which hands back what was published with
// it (nothing published is the not-loaded error). The caller owns the
// Snap either way and must Release it when done with the publication.
func (b *Base[V]) pinned(op string) (*pager.Snap, *publication[V], error) {
	snap := b.p.PinSnapshot()
	pub, ok := snap.View().(*publication[V])
	if !ok {
		return snap, nil, b.notLoaded(op)
	}
	return snap, pub, nil
}

// View pins the committed epoch and returns the view published with it —
// what a query submitted now would read — and the release of the pin,
// which the caller owes once done with the view.
func (b *Base[V]) View() (v V, release func(), err error) {
	snap, pub, err := b.pinned("View")
	if err != nil {
		snap.Release()
		return v, nil, err
	}
	return pub.view, snap.Release, nil
}

// planned is the read protocol up to the plan: pin, and take q's plan
// over the pinned view. It is the one planning site, and the plan phase
// is exactly its second half, publication.plan: q's cell, or the catalog
// lookup and the costing over the view's statistics. The plan may be
// shared with every other reader of the view and is read-only. The
// caller owns the Snap either way and must Release it when done with the
// view and the plan.
func (b *Base[V]) planned(op string, q core.QueryID) (*pager.Snap, V, *planCell, error) {
	snap, pub, err := b.pinned(op)
	if err != nil {
		var none V
		return snap, none, nil, err
	}
	defer b.p.Metrics().StartSpan(metrics.PhasePlan).End()
	c, err := pub.plan(q)
	return snap, pub.view, c, err
}

// Execute implements core.Engine. It is safe to call from many
// goroutines; cancellation via ctx is honored at page-fetch granularity.
// A query pins a commit epoch, plans over the view published with it and
// runs against that view without touching the latch, so U1-U3 updates
// never stall it.
func (b *Base[V]) Execute(ctx context.Context, q core.QueryID, p core.Params) (core.Result, error) {
	snap, v, c, err := b.planned("Execute", q)
	defer snap.Release()
	if err != nil {
		return core.Result{}, err
	}
	before := b.p.Stats().IO()
	res, err := v.Exec(ctx, c.ph, p)
	if err != nil {
		return core.Result{}, err
	}
	res.PageIO = b.p.Stats().IO() - before
	return res, nil
}

// Explain implements core.Explainer: the tree Execute would run for q
// now, planned over the same pinned view and drawn by it (View.Explain).
// The tree may be the one every other caller on that view is handed; it
// is read-only.
func (b *Base[V]) Explain(_ context.Context, q core.QueryID, _ core.Params) (*core.PlanNode, error) {
	snap, v, c, err := b.planned("Explain", q)
	defer snap.Release()
	if err != nil {
		return nil, err
	}
	if t := c.tree.Load(); t != nil {
		return t, nil
	}
	t, err := v.Explain(c.ph)
	if err == nil {
		c.tree.Store(t) // racing Explains store equal trees
	}
	return t, err
}

// ColdReset implements core.Engine. It quiesces (pager.BlockPins):
// in-flight queries finish before the pool is dropped, and queries
// submitted during the reset wait for it.
func (b *Base[V]) ColdReset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.p.ColdReset()
}

// Close implements core.Engine: dirty pages are flushed best-effort and
// the pager's file handles and pool are released. Double-Close is safe.
func (b *Base[V]) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.p.AdvanceEpoch(nil)
	b.loaded = false
	b.last = nil
	return b.p.Close()
}

// The update workload (U1-U3): validate, open a pager mutation bracket,
// apply to the store, publish. Every page the apply overwrites is
// versioned with its pre-image at the next commit epoch, so pinned
// snapshot readers keep the pre-update state, and publish commits the
// epoch together with the store's view of it, which is what makes the
// update visible to new readers. A refused update (cancelled, not loaded,
// malformed, name taken, name missing) returns before the bracket opens
// and leaves no trace. Once the bracket is open the apply cannot be
// cancelled: a hook that stopped partway would leave the store half
// updated, and an apply that fails stops the engine (publish). What makes
// an update durable is the server's journal file, which records it after
// this returns (updatelog.FileLog).
func (b *Base[V]) update(ctx context.Context, kind updatelog.Kind, name string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	if !b.loaded {
		return b.notLoaded(kind.String())
	}
	if kind != updatelog.KindDelete {
		err := xmldom.ParseRecord(&b.rec, data)
		if v, ok := b.s.(Validator); ok && err == nil {
			err = v.Validate(&b.rec)
		}
		if err != nil {
			return fmt.Errorf("%s: %s %s: %w", b.s.Name(), kind, name, err)
		}
	}
	exists := b.s.Exists(name)
	switch {
	case kind == updatelog.KindInsert && exists:
		return fmt.Errorf("%s: insert %s: document already exists", b.s.Name(), name)
	case kind == updatelog.KindDelete && !exists:
		return fmt.Errorf("%s: document %q not found", b.s.Name(), name)
	}
	ctx = context.WithoutCancel(ctx)
	epoch := b.p.BeginMutation()
	var err error
	if exists {
		err = b.s.ApplyDelete(ctx, name)
	}
	if err == nil && kind != updatelog.KindDelete {
		err = b.s.ApplyInsert(ctx, name, data, &b.rec)
	}
	return b.publish(epoch, b.p.EndMutation, err)
}

// InsertDocument implements core.Engine (U1). It fails if the name
// exists.
func (b *Base[V]) InsertDocument(ctx context.Context, name string, data []byte) error {
	return b.update(ctx, updatelog.KindInsert, name, data)
}

// ReplaceDocument implements core.Engine (U2): the named document is
// replaced wholesale, or added when absent.
func (b *Base[V]) ReplaceDocument(ctx context.Context, name string, data []byte) error {
	return b.update(ctx, updatelog.KindReplace, name, data)
}

// DeleteDocument implements core.Engine (U3). It fails if the name does
// not exist.
func (b *Base[V]) DeleteDocument(ctx context.Context, name string) error {
	return b.update(ctx, updatelog.KindDelete, name, nil)
}
