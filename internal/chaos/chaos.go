// Package chaos is the fault-injection harness: it crashes a served engine
// at deterministic points and then does what the served system does after
// a crash — it restarts. A crash halts the pager's I/O for good (its disk
// is process memory, so the crashed engine is a dead process); what comes
// back is a fresh engine that Reopens the server's journal file
// (server.Reopen: load, replay, index rebuild), exactly as
// `xbench serve --journal` restarts. The harness then requires every
// answer to be the one the fault-free system gives in the state the
// acknowledgments imply. It is the executable proof of the recovery
// invariants in DESIGN.md §7 ("Fault model and recovery") for all four
// engines.
//
// One cell (RunCell) is one engine on one database, and every crash point
// of it is one served life: server.Reopen over a fresh journal is the
// load, then, on a multi-document class, a loopback client sends U1, U2
// and U3 through one workload.Updater. The crash points lie inside the
// load and inside each update.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"xbench/internal/client"
	"xbench/internal/core"
	"xbench/internal/pager"
	"xbench/internal/server"
	"xbench/internal/workload"
)

// Faultable is the contract an engine must satisfy to be chaos-tested:
// exposing its pager so faults can be injected. All four built-in engines
// implement it.
type Faultable interface {
	Pager() *pager.Pager
}

// Outcome summarizes one engine x class chaos cell. A restart has one
// legal state: the load plus exactly the updates the server acknowledged,
// which it journaled and synced before answering. A crash inside an
// update's apply rolls that update back; a point at an update's last
// operation lets it be acknowledged, so the crash fires in the next
// update, or nowhere after U3.
type Outcome struct {
	Engine  string
	Class   core.Class
	Skipped bool // engine does not support the class, or is not Faultable
	// CrashOps are the crash points exercised, on the disk-op clock of one
	// served life: the load's operations, then U1's, U2's and U3's.
	CrashOps []int64
	// Crashed counts the crash points that fired inside the load ([0])
	// and inside U1–U3 ([1]–[3]).
	Crashed [4]int
	// Restarted counts the restarts by the number of acknowledged updates
	// they replayed: [0] the bare load, [k] U1 to Uk committed.
	Restarted [4]int
	// Queries is the number of answers compared with the twin's, over
	// every restart.
	Queries int
	Err     error
}

func (o Outcome) String() string {
	switch {
	case o.Skipped:
		return "-"
	case o.Err != nil:
		return "FAIL"
	}
	crashes := 0
	for _, n := range o.Crashed {
		crashes += n
	}
	return fmt.Sprintf("ok:%dc%dq", crashes, o.Queries)
}

// RunCell chaos-tests one engine x database cell. newEngine must return a
// fresh instance on every call; db is the database to load. crashPoints
// is the number of crash points spread through each phase of a served
// life: the load and, on a multi-document class, each of U1–U3. It must
// be at least 1: a cell with no crash point tests nothing.
func RunCell(newEngine func() core.Engine, db *core.Database, crashPoints int) Outcome {
	probe := newEngine()
	out := Outcome{Engine: probe.Name(), Class: db.Class}
	if crashPoints < 1 {
		out.Err = fmt.Errorf("chaos: %d crash points per phase, want at least 1", crashPoints)
		return out
	}
	if _, ok := probe.(Faultable); !ok || probe.Supports(db.Class, db.Size) != nil {
		out.Skipped = true
		return out
	}
	dir, err := os.MkdirTemp("", "xbench-chaos-")
	if err != nil {
		out.Err = fmt.Errorf("chaos: %w", err)
		return out
	}
	defer os.RemoveAll(dir)

	// A fault-free life measures where each phase ends on the disk-op
	// clock, so the crash points land inside the phases.
	l, err := serve(newEngine(), db, filepath.Join(dir, "probe.journal"), 0, nil)
	if err != nil {
		out.Err = fmt.Errorf("chaos: probe: %w", err)
		return out
	}
	prev := int64(0)
	for k, end := range l.ends {
		if end == prev {
			out.Err = fmt.Errorf("chaos: phase %d performed no disk operations", k)
			return out
		}
		prev = end
	}

	// The fault-free twin: the answers of each acknowledged state, taken
	// after the load and after each update it served.
	var want [][]workload.Measurement
	ctx := context.Background()
	_, err = serve(newEngine(), db, filepath.Join(dir, "twin.journal"), 0, func(e core.Engine) error {
		ms := answers(ctx, e, db.Class)
		for _, m := range ms {
			if m.Err != nil && !queryNotAnswered(m.Err) {
				return fmt.Errorf("%s: %w", m.Query, m.Err)
			}
		}
		want = append(want, ms)
		return nil
	})
	if err != nil {
		out.Err = fmt.Errorf("chaos: twin: %w", err)
		return out
	}

	for i, crashAt := range spread(l.ends, crashPoints) {
		out.CrashOps = append(out.CrashOps, crashAt)
		path := filepath.Join(dir, fmt.Sprintf("crash%d.journal", i+1))
		if err := runCrashPoint(newEngine, db, path, crashAt, want, &out); err != nil {
			out.Err = fmt.Errorf("chaos: crash point %d (op %d): %w", i+1, crashAt, err)
			return out
		}
	}
	return out
}

// spread spreads n crash points through each phase of a served life,
// whose phases end at ends[0] (the load) and ends[k] (Uk) on the disk-op
// clock: strictly inside the load, and across [start, end] of each update
// inclusive of both ends, so one point lets the update be acknowledged
// and the others crash its apply. An update's end is the next one's
// start; a point two phases share is run once.
func spread(ends []int64, n int) []int64 {
	var pts []int64
	add := func(at int64) {
		if len(pts) == 0 || pts[len(pts)-1] != at {
			pts = append(pts, at)
		}
	}
	for i := 1; i <= n; i++ {
		add(max(ends[0]*int64(i)/int64(n+1), 1))
	}
	for k := 1; k < len(ends); k++ {
		for i := 1; i <= n; i++ {
			var rel int64
			if n > 1 {
				rel = (ends[k] - ends[k-1]) * int64(i-1) / int64(n-1)
			}
			add(ends[k-1] + rel)
		}
	}
	return pts
}

// life is what one served process did before it died.
type life struct {
	// ends is the disk-op clock at the end of the load and of each
	// acknowledged update.
	ends []int64
	// crashed is the phase the crash fired in: 0 the load, k update Uk;
	// -1 for none.
	crashed int
}

// acked is the number of updates the server acknowledged.
func (l life) acked() int { return max(len(l.ends)-1, 0) }

// serve runs one served life over the journal at path: e under a fault
// policy with a crash point at crashAt (0: none), server.Reopen — the
// load — and on a multi-document class a loopback client sending U1, U2
// and U3 through one Updater, until the crash fires. after, when not nil,
// runs on e after the load and after each acknowledged update. The server
// is closed when it returns, and e with it.
func serve(e core.Engine, db *core.Database, path string, crashAt int64, after func(core.Engine) error) (life, error) {
	ctx := context.Background()
	l := life{crashed: -1}
	p := e.(Faultable).Pager()
	p.SetFaultPolicy(pager.FaultPolicy{CrashAfterOps: crashAt})
	s, _, err := server.Reopen(e, db, workload.Indexes(db.Class), path, server.Config{})
	if err != nil {
		defer e.Close()
		if !pager.IsCrash(err) {
			return l, fmt.Errorf("non-crash load failure under crash policy: %w", err)
		}
		l.crashed = 0
		return l, stopped(ctx, e)
	}
	defer s.Close()
	step := func() error {
		l.ends = append(l.ends, p.OpCount())
		if after == nil {
			return nil
		}
		return after(e)
	}
	if err := step(); err != nil || db.Class.SingleDocument() {
		return l, err
	}
	c, err := dial(s, 1)
	if err != nil {
		return l, err
	}
	defer c.Close()
	u, err := workload.NewUpdater(db.Class, 0, 1)
	if err != nil {
		return l, err
	}
	for _, op := range workload.UpdateOps {
		if _, _, err := u.Apply(ctx, c, op); err != nil {
			if stopped(ctx, e) != nil {
				return l, fmt.Errorf("%s failed without stopping the engine: %w", op, err)
			}
			l.crashed = int(op)
			return l, nil
		}
		if err := step(); err != nil {
			return l, err
		}
	}
	return l, nil
}

// dial starts s and connects a loopback client with the given id, which
// sends no retries.
func dial(s *server.Server, id uint64) (*client.Client, error) {
	if err := s.Start(); err != nil {
		return nil, err
	}
	return client.Dial(s.Addr().String(), client.Config{ClientID: id, Retries: -1})
}

// runCrashPoint exercises one crash point: one served life that crashes,
// then the restart — a fresh engine Reopening the same journal on a
// perfect disk — which must replay exactly the acknowledged updates and
// answer every query as the twin does in that state.
func runCrashPoint(newEngine func() core.Engine, db *core.Database, path string,
	crashAt int64, want [][]workload.Measurement, out *Outcome) error {
	ctx := context.Background()
	l, err := serve(newEngine(), db, path, crashAt, nil)
	if err != nil {
		return err
	}
	if l.crashed >= 0 {
		out.Crashed[l.crashed]++
	}

	e := newEngine()
	s, replayed, err := server.Reopen(e, db, workload.Indexes(db.Class), path, server.Config{})
	if err != nil {
		e.Close()
		return fmt.Errorf("restart: %w", err)
	}
	defer s.Close()
	acked := l.acked()
	if replayed != acked {
		return fmt.Errorf("restart replayed %d journal records, the server acknowledged %d updates", replayed, acked)
	}
	n, err := compare(want[acked], answers(ctx, e, db.Class))
	if err != nil {
		return fmt.Errorf("restart with %d acknowledged update(s): %w", acked, err)
	}
	out.Queries += n
	out.Restarted[acked]++
	return checkRecoveredEpoch(ctx, s, e, e.(Faultable).Pager(), db.Class)
}

// answers runs every query of the class cold and, on a multi-document
// class, Q1 for the update target, whose answer names the last update
// acknowledged: what a restart must answer as the twin does.
func answers(ctx context.Context, e core.Engine, class core.Class) []workload.Measurement {
	ms := workload.RunAll(ctx, e, class)
	if class.SingleDocument() {
		return ms
	}
	res, err := e.Execute(ctx, core.Q1, targetParams(class))
	return append(ms, workload.Measurement{Query: core.Q1, Result: res, Err: err})
}

// targetParams binds Q1 to the document a life's U1–U3 act on.
func targetParams(class core.Class) core.Params {
	return core.Params{"X": workload.UpdateTargetID(class, 0)}
}

// compare requires got to answer every query as want does, bit for bit,
// and returns how many answers it compared; a restart that compared none
// proves nothing and fails.
func compare(want, got []workload.Measurement) (int, error) {
	if len(got) != len(want) {
		return 0, fmt.Errorf("ran %d queries, the twin ran %d", len(got), len(want))
	}
	n := 0
	for i, m := range got {
		if queryNotAnswered(want[i].Err) {
			// The engine does not implement this query for the class; the
			// restarted one must decline it the same way.
			if !queryNotAnswered(m.Err) {
				return n, fmt.Errorf("query %s answered after the restart but not by the twin", m.Query)
			}
			continue
		}
		if m.Err != nil {
			return n, fmt.Errorf("query %s after the restart: %w", m.Query, m.Err)
		}
		if err := sameItems(want[i].Result.Items, m.Result.Items); err != nil {
			return n, fmt.Errorf("query %s diverges from the fault-free twin: %w", m.Query, err)
		}
		n++
	}
	if n == 0 {
		return 0, errors.New("no query answered after the restart")
	}
	return n, nil
}

// checkRecoveredEpoch requires recovery to land on a consistent latest
// commit epoch (DESIGN.md §15): replay must leave no mutation bracket
// open — so with pins drained, inline pruning has reclaimed every page
// version — and, on a multi-document class, the served commit path must
// still work: a second client's insert (client 1 of 2, so another
// document than the life's) has to advance the epoch without changing
// the update target's answer.
func checkRecoveredEpoch(ctx context.Context, s *server.Server, e core.Engine, p *pager.Pager, class core.Class) error {
	if n := p.PinnedSnapshots(); n != 0 {
		return fmt.Errorf("epoch check: %d snapshots pinned after recovery", n)
	}
	if n := p.LiveVersions(); n != 0 {
		return fmt.Errorf("epoch check: %d page versions survive recovery with no pins (bracket left open?)", n)
	}
	if class.SingleDocument() {
		return nil
	}
	recovered, err := e.Execute(ctx, core.Q1, targetParams(class))
	if err != nil {
		return fmt.Errorf("epoch check: %w", err)
	}
	before := p.SnapshotEpoch()
	c, err := dial(s, 2)
	if err != nil {
		return err
	}
	defer c.Close()
	other, err := workload.NewUpdater(class, 1, 2)
	if err != nil {
		return err
	}
	if _, _, err := other.Apply(ctx, c, workload.U1); err != nil {
		return fmt.Errorf("epoch check: post-recovery update: %w", err)
	}
	if after := p.SnapshotEpoch(); after <= before {
		return fmt.Errorf("epoch check: commit did not advance the epoch (%d -> %d)", before, after)
	}
	again, err := e.Execute(ctx, core.Q1, targetParams(class))
	if err != nil {
		return fmt.Errorf("epoch check: re-verification: %w", err)
	}
	if err := sameItems(recovered.Items, again.Items); err != nil {
		return fmt.Errorf("epoch check: recovered answer changed after an unrelated commit: %w", err)
	}
	return nil
}

// stopped requires a crashed engine to answer like a dead one: a query
// gets the not-loaded error, never an answer from a half-built store.
func stopped(ctx context.Context, e core.Engine) error {
	_, err := e.Execute(ctx, core.Q1, core.Params{"X": "O1"})
	if err == nil || !strings.Contains(err.Error(), "before Load") {
		return fmt.Errorf("crashed engine answered Q1 with %v, want the not-loaded error", err)
	}
	return nil
}

// queryNotAnswered reports whether err means the engine legitimately
// declines the query (not defined for the class, or unsupported) rather
// than failing it.
func queryNotAnswered(err error) bool {
	return err != nil && (errors.Is(err, core.ErrNoQuery) || errors.Is(err, core.ErrUnsupported))
}

// sameItems requires bit-identical result items in identical order — the
// strictest comparison: recovery must not change any answer at all.
func sameItems(want, got []string) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d items, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			w, g := want[i], got[i]
			if len(w) > 120 {
				w = w[:120] + "..."
			}
			if len(g) > 120 {
				g = g[:120] + "..."
			}
			return fmt.Errorf("item %d differs:\n  want: %s\n  got:  %s", i, w, g)
		}
	}
	return nil
}
