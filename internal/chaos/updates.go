package chaos

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"xbench/internal/client"
	"xbench/internal/core"
	"xbench/internal/pager"
	"xbench/internal/server"
	"xbench/internal/workload"
)

// UpdateOutcome summarizes one engine x class x update-op chaos cell.
//
// Unlike the load cells (where the restart re-runs the load, so the
// answers must match the fault-free baseline exactly), an update crash has
// TWO legal recovered states: the update was never acknowledged (the crash
// landed inside the engine's apply, so the server never journaled it) or
// it was (the crash landed after the update, which the server journaled
// and fsynced before answering). Committed and RolledBack count which
// state each crash point restarted to; anything else — a torn, partially
// applied update, or an acknowledged one the restart lost — fails the
// cell.
type UpdateOutcome struct {
	Engine  string
	Class   core.Class
	Op      workload.UpdateOp
	Skipped bool // class/engine unsupported, or not Faultable
	// CrashOps are the absolute disk-op budgets of the crash points.
	CrashOps []int64
	// Crashes counts crash points that actually fired mid-update.
	Crashes int
	// Recoveries counts successful restarts (server.Reopen).
	Recoveries int
	// Committed counts crash points that restarted to the post-update
	// state; RolledBack those that restarted to the pre-update state.
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
// cell the way it is served: per crash point a journaled server (Reopen
// over a fresh journal file) takes the setup and the update from a
// loopback client, and the crash fires inside the engine's apply of the
// update. Then the restart: a fresh engine Reopens the same journal under
// transient read faults, which must replay exactly the acknowledged
// updates, and the verification query must observe exactly the pre- or
// the post-update answer — the one the acknowledgments imply. newEngine
// must return a fresh instance on every call.
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

	// Fault-free twin: establish the two legal recovered states. seq 0 is
	// used throughout — every run starts from a fresh load.
	const seq = 0
	id := workload.UpdateTargetID(db.Class, seq)
	twin := newEngine()
	defer twin.Close()
	if _, _, err := workload.LoadAndIndex(ctx, twin, db); err != nil {
		out.Err = fmt.Errorf("chaos: twin load: %w", err)
		return out
	}
	if _, err := setupUpdate(ctx, twin, db.Class, op, seq); err != nil {
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

	dir, err := os.MkdirTemp("", "xbench-chaos-")
	if err != nil {
		out.Err = fmt.Errorf("chaos: %w", err)
		return out
	}
	defer os.RemoveAll(dir)

	// Measure the update's fault-free disk-op budget on the same served
	// path, so crash points land inside the operation itself, not the load
	// around it.
	l, err := serve(newEngine(), db, op, seq, filepath.Join(dir, "probe.journal"), cfg.Seed, -1)
	if err != nil {
		out.Err = fmt.Errorf("chaos: probe: %w", err)
		return out
	}
	if l.ops == 0 {
		out.Err = fmt.Errorf("chaos: %s performed no disk operations", op)
		return out
	}

	// Spread crash points across [0, budget] INCLUSIVE of both ends: the
	// server journals an update only after the engine applied it, so only
	// the last point (the update's ops all done) lets it be acknowledged,
	// and only the others crash inside the apply.
	for i := 1; i <= cfg.CrashPoints; i++ {
		var rel int64
		if cfg.CrashPoints > 1 {
			rel = l.ops * int64(i-1) / int64(cfg.CrashPoints-1)
		}
		path := filepath.Join(dir, fmt.Sprintf("crash%d.journal", i))
		if err := runUpdateCrashPoint(newEngine, db, op, seq, id, path, cfg, rel, pre, post, &out); err != nil {
			out.Err = fmt.Errorf("chaos: crash point %d (op +%d): %w", i, rel, err)
			return out
		}
	}
	return out
}

// life is what one served process did before it died.
type life struct {
	acked   int   // updates the server acknowledged
	crashAt int64 // the absolute crash point armed for the update; 0 for none
	ops     int64 // disk operations the update made
	crashed bool  // the update failed and the engine stopped
}

// serve runs one life of a served process over the journal at path: e
// under a fault policy that counts its disk operations, server.Reopen,
// and a loopback client sending the setup and then the update, with a
// crash point armed rel operations into the update (rel < 0: none). The
// server is closed when it returns, and e with it.
func serve(e core.Engine, db *core.Database, op workload.UpdateOp, seq int, path string, seed uint64, rel int64) (life, error) {
	ctx := context.Background()
	p := e.(Faultable).Pager()
	p.SetFaultPolicy(pager.FaultPolicy{Seed: seed})
	s, _, err := server.Reopen(e, db, workload.Indexes(db.Class), path, server.Config{})
	if err != nil {
		e.Close()
		return life{}, fmt.Errorf("reopen: %w", err)
	}
	defer s.Close()
	if err := s.Start(); err != nil {
		return life{}, err
	}
	c, err := client.Dial(s.Addr().String(), client.Config{ClientID: 1, Retries: -1})
	if err != nil {
		return life{}, err
	}
	defer c.Close()

	var l life
	if l.acked, err = setupUpdate(ctx, c, db.Class, op, seq); err != nil {
		return l, fmt.Errorf("setup: %w", err)
	}
	before := p.OpCount()
	if rel >= 0 {
		l.crashAt = before + rel
		p.SetFaultPolicy(pager.FaultPolicy{Seed: seed, CrashAfterOps: l.crashAt})
	}
	err = applyUpdate(ctx, c, db.Class, op, seq)
	l.ops = p.OpCount() - before
	switch {
	case err == nil:
		l.acked++
	case stopped(ctx, e) == nil:
		l.crashed = true
	default:
		return l, fmt.Errorf("update failed without stopping the engine: %w", err)
	}
	return l, nil
}

// runUpdateCrashPoint exercises one crash point inside the update: one
// served life that crashes, then the restart on a fresh engine under soft
// faults, whose replay must be the acknowledged updates and whose
// verification query must answer the state they imply.
func runUpdateCrashPoint(newEngine func() core.Engine, db *core.Database, op workload.UpdateOp,
	seq int, id, path string, cfg Config, rel int64, pre, post []string, out *UpdateOutcome) error {
	ctx := context.Background()
	l, err := serve(newEngine(), db, op, seq, path, cfg.Seed, rel)
	if err != nil {
		return err
	}
	out.CrashOps = append(out.CrashOps, l.crashAt)
	if l.crashed {
		out.Crashes++
	}

	// Restart, as `xbench serve --journal` does: a fresh engine, Load,
	// replay of the journal, index rebuild — under soft faults.
	e := newEngine()
	p := e.(Faultable).Pager()
	p.SetFaultPolicy(pager.FaultPolicy{Seed: cfg.Seed + uint64(l.crashAt), ReadErrorRate: cfg.ReadErrorRate})
	s, replayed, err := server.Reopen(e, db, workload.Indexes(db.Class), path, server.Config{})
	if err != nil {
		e.Close()
		return fmt.Errorf("restart: %w", err)
	}
	defer s.Close()
	out.Recoveries++
	if replayed != l.acked {
		return fmt.Errorf("restart replayed %d journal records, the server acknowledged %d updates", replayed, l.acked)
	}

	got, err := verifyItems(ctx, e, id)
	if err != nil {
		return fmt.Errorf("verification query: %w", err)
	}
	want, state, count := post, "post-update", &out.Committed
	if l.crashed {
		want, state, count = pre, "pre-update", &out.RolledBack
	}
	if sameItems(want, got) != nil {
		return fmt.Errorf("restarted to %d item(s) for %s, not the %s state the acknowledgments imply", len(got), id, state)
	}
	*count++
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

// setupUpdate brings the engine to the update's pre-state — U2 and U3
// need their target document to exist (revision 0) — and returns the
// number of updates that took.
func setupUpdate(ctx context.Context, e core.Engine, class core.Class, op workload.UpdateOp, seq int) (int, error) {
	if op != workload.U2 && op != workload.U3 {
		return 0, nil
	}
	name, doc := workload.UpdateDoc(class, seq, 0)
	if err := e.ReplaceDocument(ctx, name, doc); err != nil {
		return 0, err
	}
	return 1, nil
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
