// Package engbase is the lifecycle all four engines share. An engine
// embeds *Base and supplies a Store — its on-disk layout and its query
// path — and Base owns everything that is the same for every storage
// strategy: the engine latch, the pager, the logical update journal, the
// published snapshot and version GC, and the protocols built on them
// (DESIGN.md §9 load, §10 updates, §15 snapshot reads). They are written
// once, here, so a rule such as "nothing runs against a store that was
// never loaded" or "the journal append comes before the apply" cannot
// drift between engines.
//
// Snapshot publication is a seqlock over two atomics: the pager's
// committed epoch (observed by PinSnapshot) and the published view
// pointer. A writer publishes an immutable view per commit epoch; a
// reader pins first, then loads the view, and if the view's epoch is not
// the pinned epoch the writer is mid-publish (the window between
// EndMutation and the pointer store is a few instructions), so the reader
// releases and retries. A bounded number of retries falls back to the
// read latch and the live store, so a writer stalled inside that window
// can never wedge readers.
package engbase

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xbench/internal/core"
	"xbench/internal/metrics"
	"xbench/internal/pager"
	"xbench/internal/updatelog"
	"xbench/internal/xmldom"
)

// gcInterval is the background version-GC cadence. Inline pruning on
// snapshot release and commit already reclaims most versions; the ticker
// only mops up after bursts that end with a pin still outstanding.
const gcInterval = 2 * time.Second

// maxPinRetries bounds the seqlock retry loop. The mismatch window is
// publish-side and tiny; if it persists this long something is wrong and
// the latched read of the live store is the safe answer.
const maxPinRetries = 1000

// Store is the part of an engine that is its own: how documents are laid
// out over the pager and how a query runs against them. V is the read
// surface a query runs against — the live store, or a frozen view of it
// at one commit epoch.
//
// Base calls every method except Name, Supports and Run with the engine
// latch held exclusively (Live and Explain: at least shared), and only
// Name, Supports, Reset and LoadDocs on a store that is not loaded, so a
// Store does no locking and no "is it loaded" checks of its own.
type Store[V any] interface {
	// Name and Supports are core.Engine's.
	Name() string
	Supports(c core.Class, s core.Size) error

	// Reset empties the store: files truncated, volatile maps dropped.
	Reset() error
	// LoadDocs bulk-loads db into the freshly reset store and leaves
	// every dirty page on disk. Base fills in LoadStats.PageIO.
	LoadDocs(ctx context.Context, db *core.Database) (core.LoadStats, error)

	// Live returns the read surface over the live store.
	Live() V
	// Freeze returns the store's immutable read surface at a commit
	// epoch. The store is synced when Base calls it, so freezing flushes
	// nothing.
	Freeze(epoch uint64) (V, error)
	// Run executes q against v. It is called concurrently, and without
	// the latch when v is a frozen view. Base fills in Result.PageIO.
	Run(ctx context.Context, v V, q core.QueryID, p core.Params) (core.Result, error)
	// Explain returns the costed physical plan Run would execute for q
	// over the live store's statistics.
	Explain(q core.QueryID) (*core.PlanNode, error)
	// BuildIndexes creates the Table 3 value indexes among specs that
	// apply to the loaded class. Base syncs the pager afterwards.
	BuildIndexes(specs []core.IndexSpec) error

	// Validate reports whether the store can hold doc; it runs before the
	// journal append, so a refused update leaves no trace.
	Validate(doc *xmldom.Node) error
	// Exists reports whether a document is stored under name.
	Exists(name string) bool
	// ApplyInsert stores a validated document and syncs the store.
	ApplyInsert(ctx context.Context, name string, data []byte, doc *xmldom.Node) error
	// ApplyDelete removes a stored document and syncs the store.
	// replacing says the ApplyInsert of its successor follows inside the
	// same update, so a store whose ApplyInsert syncs everything dirty
	// may leave the sync to it.
	ApplyDelete(ctx context.Context, name string, replacing bool) error
}

// published pairs a frozen view with the commit epoch it describes.
type published[V any] struct {
	epoch uint64
	view  V
}

// Base is the embedded half of an engine; see the package comment.
// Execute, Explain, PageIO, Pager and Metrics are safe from many
// goroutines; every other method takes the latch exclusively, excluding
// (and quiescing) latched readers, while snapshot readers keep running
// against the epoch they pinned.
type Base[V any] struct {
	mu      sync.RWMutex
	p       *pager.Pager
	s       Store[V]
	journal *updatelog.Log // logical redo journal for U1-U3
	// state is the published view; nil when nothing is loaded, which
	// sends readers to the latch and the not-loaded error.
	state atomic.Pointer[published[V]]
	// loaded is set by a successful Load and cleared by reset and Close.
	// Guarded by mu.
	loaded     bool
	pinRetries int
}

// NewPager returns the pager an engine is built on, with a metrics
// registry of its own: an engine creates its Store's files on it first
// and then hands both to New.
func NewPager(poolPages int) *pager.Pager {
	p := pager.New(poolPages)
	p.SetMetrics(metrics.NewRegistry())
	return p
}

// New returns the base of an empty engine over s, whose files live on p.
// It adds the update journal file and starts version GC.
func New[V any](p *pager.Pager, s Store[V]) *Base[V] {
	b := &Base[V]{p: p, s: s, journal: updatelog.New(p, "updates"), pinRetries: maxPinRetries}
	p.StartGC(gcInterval)
	return b
}

// Name implements core.Engine.
func (b *Base[V]) Name() string { return b.s.Name() }

// Supports implements core.Engine.
func (b *Base[V]) Supports(c core.Class, s core.Size) error { return b.s.Supports(c, s) }

// Pager exposes the engine's pager for fault injection and recovery.
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

// publish freezes the store at epoch and publishes it for snapshot
// readers. The caller holds the write lock and has synced the store.
func (b *Base[V]) publish(epoch uint64) error {
	v, err := b.s.Freeze(epoch)
	if err != nil {
		b.state.Store(nil)
		return err
	}
	b.state.Store(&published[V]{epoch: epoch, view: v})
	return nil
}

// pin pins the pager's current snapshot and returns the published view
// matching the pinned epoch. ok is false — and nothing stays pinned —
// when no view is published or the retry budget runs out; the caller
// then reads under the latch. On ok the caller owns the Snap and must
// Release it when done with the view.
func (b *Base[V]) pin() (*pager.Snap, V, bool) {
	var none V
	for i := 0; i < b.pinRetries; i++ {
		snap := b.p.PinSnapshot()
		st := b.state.Load()
		if st == nil {
			snap.Release()
			return nil, none, false
		}
		if st.epoch == snap.Epoch() {
			return snap, st.view, true
		}
		// Writer is between EndMutation and publish; yield and retry.
		snap.Release()
		runtime.Gosched()
	}
	return nil, none, false
}

// reset empties the engine so Load is idempotent: a repeated or resumed
// load never sees leftovers from an earlier attempt. The published view
// is withdrawn first so readers fall back to the latch rather than chase
// views into truncated files.
func (b *Base[V]) reset() error {
	b.state.Store(nil)
	b.loaded = false
	if err := b.journal.Reset(); err != nil {
		return err
	}
	return b.s.Reset()
}

// abortLoad handles a mid-load failure: after a crash the machine is down
// and cleanup is impossible (pager recovery is the only path forward);
// any other failure truncates the store so the database stays empty and
// loadable.
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
	if err := b.publish(b.p.AdvanceEpoch()); err != nil {
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
	b.p.BeginMutation()
	if err := b.s.BuildIndexes(specs); err != nil {
		return err
	}
	if err := b.p.SyncAll(); err != nil {
		return err
	}
	return b.publish(b.p.EndMutation())
}

// Execute implements core.Engine. It is safe to call from many
// goroutines; cancellation via ctx is honored at page-fetch granularity.
// A query pins a commit epoch and runs against the view published for it
// without touching the latch, so U1-U3 updates never stall it. The
// latched read of the live store is the fallback for an exhausted
// seqlock, and where a never-loaded engine gets its error.
func (b *Base[V]) Execute(ctx context.Context, q core.QueryID, p core.Params) (core.Result, error) {
	if snap, v, ok := b.pin(); ok {
		defer snap.Release()
		return b.run(ctx, v, q, p)
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if !b.loaded {
		return core.Result{}, b.notLoaded("Execute")
	}
	return b.run(ctx, b.s.Live(), q, p)
}

func (b *Base[V]) run(ctx context.Context, v V, q core.QueryID, p core.Params) (core.Result, error) {
	before := b.p.Stats().IO()
	res, err := b.s.Run(ctx, v, q, p)
	if err != nil {
		return core.Result{}, err
	}
	res.PageIO = b.p.Stats().IO() - before
	return res, nil
}

// Explain implements core.Explainer under the read latch: plans are
// costed over the live store's statistics.
func (b *Base[V]) Explain(_ context.Context, q core.QueryID, _ core.Params) (*core.PlanNode, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if !b.loaded {
		return nil, b.notLoaded("Explain")
	}
	return b.s.Explain(q)
}

// ColdReset implements core.Engine. It quiesces: in-flight queries
// finish before the pool is dropped, and queries submitted during the
// reset wait for it.
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
	b.state.Store(nil)
	b.loaded = false
	return b.p.Close()
}

// The update workload (U1-U3) follows the journal-first protocol:
// validate, append one logical redo record to the journal and sync it
// (the commit point), then apply to the store. After a crash,
// RecoverUpdates reloads the database and re-applies the committed
// journal, so the store recovers to exactly the pre- or post-update
// state.
//
// Each update also runs inside a pager mutation bracket: every page it
// overwrites is versioned with its pre-image at the next commit epoch,
// so pinned snapshot readers keep the pre-update state, and EndMutation
// followed by publish makes the update visible to new readers. A refused
// update (not loaded, malformed, name taken, name missing) returns
// before the bracket opens and the journal is touched. An apply that
// fails after the append returns with the bracket open and the engine
// still serving its last published view; making that fail-stop is
// ROADMAP item 3, and this function is the one place to do it.
func (b *Base[V]) update(ctx context.Context, kind updatelog.Kind, name string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	if !b.loaded {
		return b.notLoaded(kind.String())
	}
	var doc *xmldom.Node
	if kind != updatelog.KindDelete {
		var err error
		if doc, err = xmldom.Parse(data); err == nil {
			err = b.s.Validate(doc)
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
	b.p.BeginMutation()
	if err := b.journal.Append(updatelog.Record{Kind: kind, Name: name, Data: data}); err != nil {
		return err
	}
	if exists {
		if err := b.s.ApplyDelete(ctx, name, kind == updatelog.KindReplace); err != nil {
			return err
		}
	}
	if kind != updatelog.KindDelete {
		if err := b.s.ApplyInsert(ctx, name, data, doc); err != nil {
			return err
		}
	}
	return b.publish(b.p.EndMutation())
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

// RecoverUpdates restores the store after a crash. Call pager Recover
// first; RecoverUpdates then reloads db (wiping any half-applied update)
// and re-applies the committed update journal in order. Table 3 indexes
// are dropped by the reload; rebuild them with BuildIndexes.
func (b *Base[V]) RecoverUpdates(ctx context.Context, db *core.Database) error {
	return updatelog.Replay(ctx, b, b.journal, db)
}
