package chaos

import (
	"context"
	"errors"
	"fmt"

	"xbench/internal/core"
	"xbench/internal/pager"
	"xbench/internal/workload"
)

// UpdateRecoverer is the contract an engine must satisfy for update chaos
// cells: replaying its logical update journal after pager recovery. All
// four built-in engines implement it.
type UpdateRecoverer interface {
	RecoverUpdates(ctx context.Context, db *core.Database) error
}

// UpdateOutcome summarizes one engine x class x update-op chaos cell.
//
// Unlike the load cells (where recovery re-runs the load, so the answers
// must match the fault-free baseline exactly), an update crash has TWO
// legal recovered states: the update never happened (the crash landed
// before the journal commit point) or it fully happened (the crash landed
// after). Committed and RolledBack count which state each crash point
// recovered to; anything in between — a torn, partially applied update —
// fails the cell.
type UpdateOutcome struct {
	Engine  string
	Class   core.Class
	Op      workload.UpdateOp
	Skipped bool // class/engine unsupported, not Faultable, or not UpdateRecoverer
	// CrashOps are the absolute disk-op budgets of the crash points.
	CrashOps []int64
	// Crashes counts crash points that actually fired mid-update.
	Crashes int
	// Recoveries counts successful pager recoveries.
	Recoveries int
	// Committed counts crash points that recovered to the post-update
	// state; RolledBack those that recovered to the pre-update state.
	Committed  int
	RolledBack int
	Err        error
}

func (o UpdateOutcome) String() string {
	switch {
	case o.Skipped:
		return "-"
	case o.Err != nil:
		return "FAIL"
	default:
		return fmt.Sprintf("ok:%dc%d+%d", o.Crashes, o.Committed, o.RolledBack)
	}
}

// RunUpdateCell chaos-tests one update operation on one engine x database
// cell: load, crash at deterministic points inside the update, recover the
// pager, replay the update journal, and require the verification query to
// observe exactly the pre-update or the post-update answer. newEngine must
// return a fresh instance on every call.
func RunUpdateCell(newEngine func() core.Engine, db *core.Database, op workload.UpdateOp, cfg Config) UpdateOutcome {
	ctx := context.Background()
	cfg = cfg.WithDefaults()
	probe := newEngine()
	out := UpdateOutcome{Engine: probe.Name(), Class: db.Class, Op: op}
	if db.Class.SingleDocument() {
		out.Skipped = true
		return out
	}
	if err := probe.Supports(db.Class, db.Size); err != nil {
		out.Skipped = true
		return out
	}
	if _, ok := probe.(Faultable); !ok {
		out.Skipped = true
		return out
	}
	if _, ok := probe.(UpdateRecoverer); !ok {
		out.Skipped = true
		return out
	}

	// Fault-free twin: establish the two legal recovered states. seq 0 is
	// used throughout — every run starts from a fresh load.
	const seq = 0
	id := workload.UpdateTargetID(db.Class, seq)
	twin := newEngine()
	if _, _, err := workload.LoadAndIndex(ctx, twin, db); err != nil {
		out.Err = fmt.Errorf("chaos: twin load: %w", err)
		return out
	}
	if err := setupUpdate(ctx, twin, db.Class, op, seq); err != nil {
		if errors.Is(err, core.ErrUnsupported) || errors.Is(err, core.ErrReadOnly) {
			out.Skipped = true
			return out
		}
		out.Err = fmt.Errorf("chaos: twin setup: %w", err)
		return out
	}
	pre, err := verifyItems(ctx, twin, id)
	if err != nil {
		out.Err = fmt.Errorf("chaos: twin pre-state: %w", err)
		return out
	}
	if err := applyUpdate(ctx, twin, db.Class, op, seq); err != nil {
		if errors.Is(err, core.ErrUnsupported) || errors.Is(err, core.ErrReadOnly) {
			out.Skipped = true
			return out
		}
		out.Err = fmt.Errorf("chaos: twin update: %w", err)
		return out
	}
	post, err := verifyItems(ctx, twin, id)
	if err != nil {
		out.Err = fmt.Errorf("chaos: twin post-state: %w", err)
		return out
	}
	if sameItems(pre, post) == nil {
		out.Err = fmt.Errorf("chaos: %s on %s is not observable: pre and post states identical", op, id)
		return out
	}

	// Measure the update's fault-free disk-op budget so crash points land
	// inside the operation itself, not the load around it.
	me := newEngine()
	mp := me.(Faultable).Pager()
	mp.SetFaultPolicy(pager.FaultPolicy{Seed: cfg.Seed})
	if _, _, err := workload.LoadAndIndex(ctx, me, db); err != nil {
		out.Err = fmt.Errorf("chaos: probe load: %w", err)
		return out
	}
	if err := setupUpdate(ctx, me, db.Class, op, seq); err != nil {
		out.Err = fmt.Errorf("chaos: probe setup: %w", err)
		return out
	}
	opsBefore := mp.OpCount()
	if err := applyUpdate(ctx, me, db.Class, op, seq); err != nil {
		out.Err = fmt.Errorf("chaos: probe update: %w", err)
		return out
	}
	budget := mp.OpCount() - opsBefore
	if budget == 0 {
		out.Err = fmt.Errorf("chaos: %s performed no disk operations", op)
		return out
	}

	// Spread crash points across [0, budget] INCLUSIVE of both ends: the
	// journal commit — a WAL append — is the update's very first disk op,
	// so a midpoints-only spread (as the load grid uses) would always
	// land after the commit point and never exercise rollback. rel = 0
	// crashes ON that first op, tearing the journal record.
	for i := 1; i <= cfg.CrashPoints; i++ {
		var rel int64
		if cfg.CrashPoints > 1 {
			rel = budget * int64(i-1) / int64(cfg.CrashPoints-1)
		}
		if err := runUpdateCrashPoint(newEngine, db, op, seq, id, cfg, rel, pre, post, &out); err != nil {
			out.Err = fmt.Errorf("chaos: crash point %d (op +%d): %w", i, rel, err)
			return out
		}
	}
	return out
}

// runUpdateCrashPoint exercises one crash point inside the update: load
// and set up fault-free, arm the crash, run the update, recover, replay
// the journal, and require the verification query to answer exactly the
// pre- or post-update state.
func runUpdateCrashPoint(newEngine func() core.Engine, db *core.Database, op workload.UpdateOp,
	seq int, id string, cfg Config, rel int64, pre, post []string, out *UpdateOutcome) error {
	ctx := context.Background()
	e := newEngine()
	p := e.(Faultable).Pager()
	p.SetFaultPolicy(pager.FaultPolicy{Seed: cfg.Seed})
	if _, _, err := workload.LoadAndIndex(ctx, e, db); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	if err := setupUpdate(ctx, e, db.Class, op, seq); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	crashAt := p.OpCount() + rel
	out.CrashOps = append(out.CrashOps, crashAt)
	p.SetFaultPolicy(pager.FaultPolicy{Seed: cfg.Seed, CrashAfterOps: crashAt})

	err := applyUpdate(ctx, e, db.Class, op, seq)
	switch {
	case err == nil:
		// The op's I/O pattern varied and outran the crash point; the
		// recovered state below must then be the post state.
	case pager.IsCrash(err):
		out.Crashes++
	default:
		return fmt.Errorf("non-crash failure under crash policy: %w", err)
	}

	// Power is back: physical recovery first, then logical replay of the
	// committed updates, under soft faults.
	if _, err := p.Recover(); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	out.Recoveries++
	if err := p.CheckDurable(); err != nil {
		return fmt.Errorf("durability check: %w", err)
	}
	p.SetFaultPolicy(pager.FaultPolicy{
		Seed:          cfg.Seed + uint64(crashAt),
		ReadErrorRate: cfg.ReadErrorRate,
		TornWriteRate: cfg.TornWriteRate,
	})
	if err := e.(UpdateRecoverer).RecoverUpdates(ctx, db); err != nil {
		return fmt.Errorf("update replay: %w", err)
	}
	if err := e.BuildIndexes(workload.Indexes(db.Class)); err != nil {
		return fmt.Errorf("index rebuild: %w", err)
	}
	// Checkpoint: repair any torn writes of the replay, then verify.
	if _, err := p.Recover(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := p.CheckDurable(); err != nil {
		return fmt.Errorf("durability check after replay: %w", err)
	}

	got, err := verifyItems(ctx, e, id)
	if err != nil {
		return fmt.Errorf("verification query: %w", err)
	}
	switch {
	case sameItems(post, got) == nil:
		out.Committed++
	case sameItems(pre, got) == nil:
		out.RolledBack++
	default:
		return fmt.Errorf("recovered to neither pre- nor post-update state: %d item(s) for %s", len(got), id)
	}
	return checkRecoveredEpoch(ctx, e, p, db, seq, id, got)
}

// checkRecoveredEpoch requires recovery to land on a consistent latest
// commit epoch (DESIGN.md §15): replay must leave no mutation bracket
// open — so with pins drained, inline pruning has reclaimed every page
// version — and the commit path must still work, with a fresh update
// advancing the epoch without disturbing the recovered answer.
func checkRecoveredEpoch(ctx context.Context, e core.Engine, p *pager.Pager,
	db *core.Database, seq int, id string, recovered []string) error {
	if n := p.PinnedSnapshots(); n != 0 {
		return fmt.Errorf("epoch check: %d snapshots pinned after recovery", n)
	}
	if n := p.LiveVersions(); n != 0 {
		return fmt.Errorf("epoch check: %d page versions survive recovery with no pins (bracket left open?)", n)
	}
	// The recovered epoch must accept new commits: soft faults off — the
	// grid already proved fault tolerance, this proves the MVCC commit
	// path — then one fresh insert has to advance the epoch.
	p.SetFaultPolicy(pager.FaultPolicy{})
	before := p.SnapshotEpoch()
	if err := applyUpdate(ctx, e, db.Class, workload.U1, seq+1); err != nil {
		return fmt.Errorf("epoch check: post-recovery update: %w", err)
	}
	if after := p.SnapshotEpoch(); after <= before {
		return fmt.Errorf("epoch check: commit did not advance the epoch (%d -> %d)", before, after)
	}
	// Snapshot reads at the new epoch still answer the recovered state
	// for the original target.
	again, err := verifyItems(ctx, e, id)
	if err != nil {
		return fmt.Errorf("epoch check: re-verification: %w", err)
	}
	if err := sameItems(recovered, again); err != nil {
		return fmt.Errorf("epoch check: recovered answer changed after an unrelated commit: %w", err)
	}
	return nil
}

// setupUpdate brings the engine to the update's pre-state: U2 and U3 need
// their target document to exist (revision 0).
func setupUpdate(ctx context.Context, e core.Engine, class core.Class, op workload.UpdateOp, seq int) error {
	if op != workload.U2 && op != workload.U3 {
		return nil
	}
	name, doc := workload.UpdateDoc(class, seq, 0)
	return e.ReplaceDocument(ctx, name, doc)
}

// applyUpdate runs the update operation itself — the I/O the crash points
// land inside.
func applyUpdate(ctx context.Context, e core.Engine, class core.Class, op workload.UpdateOp, seq int) error {
	name, doc := workload.UpdateDoc(class, seq, 0)
	switch op {
	case workload.U1:
		return e.InsertDocument(ctx, name, doc)
	case workload.U2:
		_, doc1 := workload.UpdateDoc(class, seq, 1)
		return e.ReplaceDocument(ctx, name, doc1)
	case workload.U3:
		return e.DeleteDocument(ctx, name)
	}
	return fmt.Errorf("chaos: unknown update op %d", int(op))
}

// verifyItems runs the verification query (Q1 for the target id) and
// returns its items.
func verifyItems(ctx context.Context, e core.Engine, id string) ([]string, error) {
	res, err := e.Execute(ctx, core.Q1, core.Params{"X": id})
	if err != nil {
		return nil, err
	}
	return res.Items, nil
}
