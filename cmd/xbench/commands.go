package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"xbench/internal/analyze"
	"xbench/internal/bench"
	"xbench/internal/chaos"
	"xbench/internal/core"
	"xbench/internal/driver"
	"xbench/internal/router"
	"xbench/internal/workload"
	"xbench/internal/xmlschema"
)

func setupGenerate(fs *flag.FlagSet) func() error {
	d := databaseFlags(fs)
	dir := fs.String("dir", "xbench-data", "output directory")
	return func() error {
		db, err := d.generate()
		if err != nil {
			return err
		}
		out := filepath.Join(*dir, db.Instance())
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		for _, doc := range db.Docs {
			if err := os.WriteFile(filepath.Join(out, doc.Name), doc.Data, 0o644); err != nil {
				return err
			}
		}
		fmt.Printf("generated %s: %d document(s), %d bytes -> %s\n",
			db.Instance(), len(db.Docs), db.Bytes(), out)
		return nil
	}
}

func setupSchema(fs *flag.FlagSet) func() error {
	classStr := classFlag(fs)
	dtd := fs.Bool("dtd", false, "emit a DTD instead of the diagram")
	xsd := fs.Bool("xsd", false, "emit a W3C XML Schema instead of the diagram")
	return func() error {
		class, err := core.ParseClass(*classStr)
		if err != nil {
			return err
		}
		s := xmlschema.For(class)
		switch {
		case *dtd:
			fmt.Print(s.DTD())
		case *xsd:
			fmt.Print(s.XSD())
		default:
			fmt.Print(s.Diagram())
		}
		return nil
	}
}

func setupAnalyze(fs *flag.FlagSet) func() error {
	d := databaseFlags(fs)
	return func() error {
		db, err := d.generate()
		if err != nil {
			return err
		}
		r := analyze.New()
		for _, doc := range db.Docs {
			if err := r.AddDocument(doc.Data); err != nil {
				return err
			}
		}
		r.Finish()
		_, err = r.WriteTo(os.Stdout)
		return err
	}
}

// setupVerify checks answers against an in-process native engine loaded
// with the same generated database: the three other engines by default,
// or the one served engine or shard cluster that --remote/--shards name —
// a routed stack is then held to the unsharded answer.
func setupVerify(fs *flag.FlagSet) func() error {
	d := databaseFlags(fs)
	rem := remoteFlags(fs)
	return func() error {
		ctx := context.Background()
		db, err := d.generate()
		if err != nil {
			return err
		}
		oracle := bench.NewEngine("X-Hive")
		if err := load(ctx, oracle, db); err != nil {
			return err
		}
		fmt.Printf("verifying %s against %s\n", db.Instance(), oracle.Name())
		var subjects []core.Engine
		if rem.named() {
			e, err := newTarget("", rem)
			if err != nil {
				return err
			}
			defer e.Close()
			subjects = append(subjects, e)
		} else {
			for _, name := range bench.EngineNames {
				if name != oracle.Name() {
					subjects = append(subjects, bench.NewEngine(name))
				}
			}
		}
		failures := 0
		for _, e := range subjects {
			if e.Supports(db.Class, db.Size) != nil {
				fmt.Printf("%-12s unsupported for %s %s (blank cells in the paper)\n",
					e.Name(), db.Class, db.Size)
				continue
			}
			if !rem.named() {
				if err := load(ctx, e, db); err != nil {
					return err
				}
			}
			for _, q := range workload.QueryIDs(db.Class) {
				want := workload.RunCold(ctx, oracle, db.Class, q)
				if want.Err != nil {
					return fmt.Errorf("native %s: %w", q, want.Err)
				}
				got := workload.RunCold(ctx, e, db.Class, q)
				if errors.Is(got.Err, core.ErrNoQuery) {
					continue // not hand-translated for this engine
				}
				if got.Err != nil {
					fmt.Printf("%-12s %-4s ERROR: %v\n", e.Name(), q, got.Err)
					failures++
					continue
				}
				mode := workload.ModeFor(db.Class, q, e.Name())
				if err := workload.Check(mode, want.Result, got.Result); err != nil {
					fmt.Printf("%-12s %-4s MISMATCH (%s): %v\n", e.Name(), q, mode, err)
					failures++
					continue
				}
				fmt.Printf("%-12s %-4s ok (%d items, checked %s)\n",
					e.Name(), q, got.Result.Count(), mode)
			}
		}
		if failures > 0 {
			return fmt.Errorf("%d verification failure(s)", failures)
		}
		fmt.Println("all checks passed")
		return nil
	}
}

// benchOpts is what `xbench bench` parsed: one run of the harness, shown
// through one of five views.
type benchOpts struct {
	view    string
	table   int
	queries []core.QueryID
	warm    int
	class   core.Class
}

// setupBench is the harness front end. Every view is the same grid
// measured the same way (bench.Runner's one cell method); they differ in
// what they print.
func setupBench(fs *flag.FlagSet) func() error {
	view := fs.String("view", "tables", "what to print: tables (the paper's Tables 1-9), report (p50/p95/p99 + phase and I/O breakdown per cell), shape (paper-vs-measured checks), ablation (indexed vs sequential scan), updates (U1-U3 per-op latency on the multi-document --class, of every engine or the --remote one)")
	table := fs.Int("table", 0, "tables view: one table (1-3 static, 4 bulk load, 5-9 queries); 0 = all")
	qs := queryFlag(fs)
	sizesStr := fs.String("sizes", "small,normal,large", "comma-separated sizes of the grid (the updates view measures the first)")
	repeat := fs.Int("repeat", 3, "cold runs per query cell, averaged (percentiles need several); measured runs per update op")
	warm := fs.Int("warm", 3, "report view: warm runs per cell after the cold runs (0 disables)")
	format := formatFlag(fs)
	classStr := classFlag(fs)
	g := genFlags(fs)
	remoteAddr := remoteFlag(fs)
	return func() error {
		sizes, err := parseList(*sizesStr, "size", core.ParseSize)
		if err != nil {
			return err
		}
		queries, err := parseQueries(*qs)
		if err != nil {
			return err
		}
		class, err := core.ParseClass(*classStr)
		if err != nil {
			return err
		}
		r := bench.NewRunner(g.config(), sizes, os.Stdout)
		r.Repeat, r.Format = *repeat, *format
		if *remoteAddr != "" {
			// The served engine is the grid's one row, measured on the
			// database its server holds. Only the updates view can
			// measure it: the other views need an engine per cell.
			if *view != "updates" {
				return fmt.Errorf("--remote applies to --view=updates")
			}
			e, err := dialRemote(*remoteAddr)
			if err != nil {
				return err
			}
			r.EngineList = []string{e.Name()}
			r.NewEngineFn = func(string) core.Engine { return e }
		}
		return runBench(r, benchOpts{*view, *table, queries, *warm, class})
	}
}

// runBench prints the view o asks for, and only it.
func runBench(r *bench.Runner, o benchOpts) error {
	switch o.view {
	case "tables":
		if o.table == 0 {
			return r.AllTables()
		}
		return r.Table(o.table)
	case "report":
		r.Warm = o.warm
		return r.MetricsReport(o.queries)
	case "shape":
		return r.ShapeReport()
	case "ablation":
		if len(o.queries) == 0 {
			o.queries = bench.ReportQueries
		}
		for _, q := range o.queries {
			if err := r.IndexAblation(q); err != nil {
				return err
			}
		}
		return nil
	case "updates":
		return r.UpdatesReport(o.class)
	}
	return fmt.Errorf("unknown view %q (want tables, report, shape, ablation or updates)", o.view)
}

func setupChaos(fs *flag.FlagSet) func() error {
	sizeStr := sizeFlag(fs)
	g := genFlags(fs)
	seed := seedFlag(fs)
	crashes := fs.Int("crashes", 3, "crash points per engine x class cell")
	readRate := fs.Float64("read-error-rate", 0, "transient read-fault probability during the restart (0 = default, negative = off)")
	updates := fs.Bool("updates", false, "also run the crash-during-update grid (U1-U3 on the multi-document classes)")
	updatesOnly := fs.Bool("updates-only", false, "run only the crash-during-update grid")
	return func() error {
		size, err := core.ParseSize(*sizeStr)
		if err != nil {
			return err
		}
		r := bench.NewRunner(g.config(), []core.Size{size}, os.Stdout)
		cfg := chaos.Config{
			Seed:          *seed,
			CrashPoints:   *crashes,
			ReadErrorRate: *readRate,
		}
		if !*updatesOnly {
			if err := r.ChaosGrid(cfg); err != nil {
				return err
			}
		}
		if *updates || *updatesOnly {
			return r.UpdateChaosGrid(cfg)
		}
		return nil
	}
}

// setupQuery loads one target and runs workload queries on it cold, one
// line each; --explain prints each query's costed physical plan instead
// of running it (over the wire for a served target).
func setupQuery(fs *flag.FlagSet) func() error {
	d := databaseFlags(fs)
	engine := engineFlag(fs)
	rem := remoteFlags(fs)
	qs := queryFlag(fs)
	show := fs.Bool("show", false, "print the result items")
	explain := fs.Bool("explain", false, "print each query's costed physical plan instead of running it")
	return func() error {
		ctx := context.Background()
		class, size, err := d.parse()
		if err != nil {
			return err
		}
		queries, err := parseQueries(*qs)
		if err != nil {
			return err
		}
		if queries == nil {
			queries = workload.QueryIDs(class)
		}
		e, err := open(ctx, d, *engine, rem)
		if err != nil {
			return err
		}
		defer e.Close()
		fmt.Printf("%s on %s %s\n", e.Name(), class, size)
		failures := 0
		for _, q := range queries {
			if *explain {
				node, err := core.Explain(ctx, e, q, workload.Params(class))
				if core.IsNotAnswered(err) {
					fmt.Printf("%s: not answered: %v\n", q, err)
					continue
				}
				if err != nil {
					return err
				}
				fmt.Printf("%s:\n%s", q, node.Format())
				continue
			}
			m := workload.RunCold(ctx, e, class, q)
			switch {
			case core.IsNotAnswered(m.Err):
				fmt.Printf("  %-4s %-34s not answered: %v\n", q, q.FunctionGroup(), m.Err)
				continue
			case m.Err != nil:
				fmt.Printf("  %-4s %-34s error: %v\n", q, q.FunctionGroup(), m.Err)
				failures++
				continue
			}
			fmt.Printf("  %-4s %-34s %6d item(s) %10v (cold) pageIO=%d order=%v mixedLost=%v\n",
				q, q.FunctionGroup(), m.Result.Count(), m.Elapsed,
				m.Result.PageIO, m.Result.OrderGuaranteed, m.Result.MixedContentLost)
			if *show {
				for i, item := range m.Result.Items {
					fmt.Printf("    [%d] %s\n", i+1, item)
				}
			}
		}
		if failures > 0 {
			return fmt.Errorf("%d query(ies) failed", failures)
		}
		return nil
	}
}

// setupThroughput drives the closed-loop driver over one loaded target,
// one run per client count per update fraction.
func setupThroughput(fs *flag.FlagSet) func() error {
	d := databaseFlags(fs)
	engine := engineFlag(fs)
	rem := remoteFlags(fs)
	clientsStr := fs.String("clients", "1,2,4,8", "comma-separated client counts to sweep")
	ops := fs.Int("ops", 0, "ops per client per step (0 = use --duration)")
	duration := fs.Duration("duration", 0, "wall-clock bound per step (used when --ops=0; 0 selects 50 ops/client)")
	think := fs.Duration("think", 0, "closed-loop think time between ops (0 = 2ms default, negative disables)")
	seed := seedFlag(fs)
	fractionsStr := fs.String("update-fraction", "0", "comma-separated per-op probabilities of a document update (U1-U3) instead of a query, swept in turn; above 0 needs a multi-document class")
	checkFlat := fs.Bool("check-flat-reads", false, "fail unless, per client count, the read p99 at the first update fraction >= 0.3 stays within 2x the read-only (fraction 0) p99")
	format := formatFlag(fs)
	return func() error {
		ctx := context.Background()
		class, _, err := d.parse()
		if err != nil {
			return err
		}
		clients, err := parseList(*clientsStr, "client count", func(p string) (int, error) {
			n, err := strconv.Atoi(p)
			if err == nil && n < 1 {
				err = fmt.Errorf("need at least one client")
			}
			return n, err
		})
		if err != nil {
			return err
		}
		// The driver owns the range rule: it rejects a fraction outside [0, 1).
		fractions, err := parseList(*fractionsStr, "update fraction", func(p string) (float64, error) {
			return strconv.ParseFloat(p, 64)
		})
		if err != nil {
			return err
		}
		e, err := open(ctx, d, *engine, rem)
		if err != nil {
			return err
		}
		defer e.Close()
		reports, err := driver.Sweep(ctx, e, class, clients, fractions, driver.Config{
			OpsPerClient: *ops,
			Duration:     *duration,
			Seed:         *seed,
			Think:        *think,
		})
		if err != nil {
			return err
		}
		switch *format {
		case "table":
			driver.WriteTable(os.Stdout, reports)
		case "json":
			err = driver.WriteJSON(os.Stdout, reports)
		case "csv":
			err = driver.WriteCSV(os.Stdout, reports)
		default:
			err = fmt.Errorf("unknown format %q (want table, json or csv)", *format)
		}
		if err != nil {
			return err
		}
		// With --shards, append the per-shard routing counters to the report
		// (on stderr for the machine formats, so their output stays parseable).
		if rt, ok := e.(*router.Router); ok {
			w := os.Stdout
			if *format != "table" {
				w = os.Stderr
			}
			printShardMetrics(w, rt.Metrics())
		}
		if *checkFlat {
			return checkFlatReads(reports, clients)
		}
		return nil
	}
}

// checkFlatReads is the CI smoke gate of the snapshot-read claim
// (DESIGN.md §15): at each client count, the step nearest 30% updates
// must keep its aggregate read p99 within 2x of the read-only (fraction
// 0) step's. Higher fractions stay informational — on a small host the
// far tail is dominated by CPU time-sharing with the update rewrites,
// which MVCC cannot (and does not claim to) remove; the gate pins the
// lock-wait claim, not the scheduler.
func checkFlatReads(reports []driver.Report, clients []int) error {
	for _, n := range clients {
		var readOnly, gate *driver.Report
		for i := range reports {
			r := &reports[i]
			if r.Clients != n {
				continue
			}
			if r.UpdateFraction == 0 {
				readOnly = r
			}
			if r.UpdateFraction >= 0.3 && (gate == nil || r.UpdateFraction < gate.UpdateFraction) {
				gate = r
			}
		}
		if readOnly == nil || gate == nil {
			return fmt.Errorf("--check-flat-reads needs --update-fraction to hold 0 and a value >= 0.3")
		}
		if floor := readOnly.ReadP99; gate.ReadP99 > 2*floor {
			return fmt.Errorf("%d clients: read p99 %v at %.0f%% updates exceeds 2x the read-only p99 %v",
				n, gate.ReadP99, gate.UpdateFraction*100, floor)
		}
	}
	return nil
}
