// Package chaos is the fault-injection harness: it crashes an engine at
// deterministic points and then does what the served system does after a
// crash — it restarts. A crash halts the pager's I/O for good (its disk is
// process memory, so the crashed engine is a dead process); what comes
// back is a fresh engine that loads the database and, for updates, replays
// the server's journal file through server.Reopen, exactly as
// `xbench serve --journal` restarts. The harness then requires every
// answer to be one the fault-free system gives. It is the executable proof
// of the recovery invariants in DESIGN.md §7 ("Fault model and
// recovery") for all four engines.
//
// The load grid (RunCell) crashes inside a bulk load: the crash must
// surface as a crash and the dead engine must answer nothing, and a fresh
// engine loaded under transient read faults must answer every workload
// query bit for bit like the baseline. The update grid (updates.go)
// crashes inside an update a loopback client sent to a journaled server.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"xbench/internal/core"
	"xbench/internal/pager"
	"xbench/internal/workload"
)

// Faultable is the contract an engine must satisfy to be chaos-tested:
// exposing its pager so faults can be injected. All four built-in engines
// implement it.
type Faultable interface {
	Pager() *pager.Pager
}

// Config controls one chaos run.
type Config struct {
	// Seed drives the deterministic fault streams; every crash point n
	// re-seeds with Seed+n so runs are reproducible end to end.
	Seed uint64
	// CrashPoints is the number of distinct crash points spread through
	// the load; <= 0 selects the default of 3.
	CrashPoints int
	// ReadErrorRate is the transient read-fault probability during the
	// restart and its queries; < 0 disables, 0 selects 0.02.
	ReadErrorRate float64
}

// WithDefaults resolves the zero-value fields to their defaults.
func (c Config) WithDefaults() Config {
	if c.CrashPoints <= 0 {
		c.CrashPoints = 3
	}
	switch {
	case c.ReadErrorRate < 0:
		c.ReadErrorRate = 0
	case c.ReadErrorRate == 0:
		c.ReadErrorRate = 0.02
	}
	return c
}

// Outcome summarizes one engine x class chaos cell.
type Outcome struct {
	Engine  string
	Class   core.Class
	Skipped bool // engine does not support the class, or is not Faultable
	// CrashOps are the disk-op budgets of the crash points exercised.
	CrashOps []int64
	// Crashes counts crash points that fired, Recoveries the restarts
	// that loaded and answered.
	Crashes    int
	Recoveries int
	// Queries is the number of query results compared against baseline.
	Queries int
	Err     error
}

func (o Outcome) String() string {
	switch {
	case o.Skipped:
		return "-"
	case o.Err != nil:
		return "FAIL"
	default:
		return fmt.Sprintf("ok:%dc%dq", o.Crashes, o.Queries)
	}
}

// RunCell chaos-tests one engine x database cell. newEngine must return a
// fresh instance on every call; db is the database to load.
func RunCell(newEngine func() core.Engine, db *core.Database, cfg Config) Outcome {
	ctx := context.Background()
	cfg = cfg.WithDefaults()
	probe := newEngine()
	out := Outcome{Engine: probe.Name(), Class: db.Class}
	if err := probe.Supports(db.Class, db.Size); err != nil {
		out.Skipped = true
		return out
	}
	if _, ok := probe.(Faultable); !ok {
		out.Skipped = true
		return out
	}

	// Fault-free baseline: the answers every restart must reproduce.
	baseline := newEngine()
	defer baseline.Close()
	if _, _, err := workload.LoadAndIndex(ctx, baseline, db); err != nil {
		out.Err = fmt.Errorf("chaos: baseline load: %w", err)
		return out
	}
	want := workload.RunAll(ctx, baseline, db.Class)
	for _, m := range want {
		if m.Err != nil && !queryNotAnswered(m.Err) {
			out.Err = fmt.Errorf("chaos: baseline %s: %w", m.Query, m.Err)
			return out
		}
	}

	// Measure the fault-free op budget so crash points land inside the
	// load, spread evenly through it.
	me := newEngine()
	defer me.Close()
	mp := me.(Faultable).Pager()
	mp.SetFaultPolicy(pager.FaultPolicy{Seed: cfg.Seed})
	if _, _, err := workload.LoadAndIndex(ctx, me, db); err != nil {
		out.Err = fmt.Errorf("chaos: probe load: %w", err)
		return out
	}
	total := mp.OpCount()
	if total == 0 {
		out.Err = fmt.Errorf("chaos: load performed no disk operations")
		return out
	}

	for i := 1; i <= cfg.CrashPoints; i++ {
		crashAt := total * int64(i) / int64(cfg.CrashPoints+1)
		if crashAt < 1 {
			crashAt = 1
		}
		out.CrashOps = append(out.CrashOps, crashAt)
		if err := runCrashPoint(newEngine, db, cfg, crashAt, want, &out); err != nil {
			out.Err = fmt.Errorf("chaos: crash point %d (op %d): %w", i, crashAt, err)
			return out
		}
	}
	return out
}

// runCrashPoint exercises one crash point: load until the crash fires,
// require the dead engine to answer nothing, then restart — a fresh
// engine loaded under transient read faults — and compare every query
// answer with the baseline.
func runCrashPoint(newEngine func() core.Engine, db *core.Database, cfg Config,
	crashAt int64, want []workload.Measurement, out *Outcome) error {
	ctx := context.Background()
	e := newEngine()
	defer e.Close()
	e.(Faultable).Pager().SetFaultPolicy(pager.FaultPolicy{Seed: cfg.Seed, CrashAfterOps: crashAt})
	_, _, err := workload.LoadAndIndex(ctx, e, db)
	switch {
	case err == nil:
		// The budget outlasted the load (indexing cost can vary with the
		// crash point); nothing crashed, the restart below still must match.
	case pager.IsCrash(err):
		out.Crashes++
		if err := stopped(ctx, e); err != nil {
			return err
		}
	default:
		return fmt.Errorf("non-crash failure under crash policy: %w", err)
	}

	// Restart: nothing of the crashed engine survives, so a fresh one loads
	// the database again, with soft faults firing.
	r := newEngine()
	defer r.Close()
	r.(Faultable).Pager().SetFaultPolicy(pager.FaultPolicy{
		Seed:          cfg.Seed + uint64(crashAt),
		ReadErrorRate: cfg.ReadErrorRate,
	})
	if _, _, err := workload.LoadAndIndex(ctx, r, db); err != nil {
		return fmt.Errorf("restart load: %w", err)
	}
	out.Recoveries++

	got := workload.RunAll(ctx, r, db.Class)
	if len(got) != len(want) {
		return fmt.Errorf("ran %d queries, baseline ran %d", len(got), len(want))
	}
	for i, m := range got {
		if queryNotAnswered(want[i].Err) {
			// The engine does not implement this query for the class; the
			// restarted one must decline it the same way.
			if !queryNotAnswered(m.Err) {
				return fmt.Errorf("query %s answered after the restart but not at baseline", m.Query)
			}
			continue
		}
		if m.Err != nil {
			return fmt.Errorf("query %s after the restart: %w", m.Query, m.Err)
		}
		if err := sameItems(want[i].Result.Items, m.Result.Items); err != nil {
			return fmt.Errorf("query %s diverges from fault-free run: %w", m.Query, err)
		}
		out.Queries++
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
