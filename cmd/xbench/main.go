// Command xbench is the command-line front end of the XBench benchmark
// reproduction: it generates benchmark databases, prints the class schemas
// (the paper's Figures 1-4), loads engines, runs individual workload
// queries, and regenerates the paper's Tables 1-9.
//
// Usage:
//
//	xbench generate  --class=dcmd --size=small [--dir=out] [--seed=N]
//	xbench schema    --class=tcsd [--dtd|--xsd]
//	xbench tables    [--table=N]           (static Tables 1-3)
//	xbench bench     [--table=N] [--sizes=small,normal,large] [--repeat=N] [--scale=N] [--csv]
//	xbench report    [--format=table|json|csv] [--repeat=N] [--warm=N] [--q=5,12] [--sizes=...]
//	xbench chaos     [--seed=N] [--crashes=N] [--read-error-rate=F] [--torn-rate=F] [--size=S] [--scale=N] [--updates]
//	xbench ablation  [--q=N] [--size=S]    (indexed vs sequential scan)
//	xbench analyze   --class=tcmd --size=small
//	xbench verify    --class=dcmd --size=small
//	xbench shape     [--sizes=...]         (paper-vs-measured shape checks)
//	xbench load      --engine=x-hive --class=dcmd --size=small
//	xbench query     --engine=x-hive --class=dcmd --size=small --q=5 [--show]
//	xbench explain   --engine=x-hive --class=dcsd --size=small --query=5 [--remote=ADDR]
//	xbench workload  --engine=x-hive --class=dcmd --size=small
//	xbench updates   [--class=dcmd|tcmd] [--size=S] [--engine=NAME] [--remote=ADDR] [--repeat=N] [--format=table|json|csv] [--gen-seed=N] [--scale=N]
//	xbench throughput --engine=x-hive --class=dcmd --size=small [--remote=ADDR | --shards=LIST] [--skip-load] [--clients=1,2,4,8] [--ops=N|--duration=D] [--think=D] [--seed=N] [--update-fraction=F] [--update-seq-base=N] [--read-pref=primary|replica] [--partial=failfast|degraded] [--fanout=N] [--vnodes=N] [--format=table|json|csv] [--gen-seed=N] [--scale=N]
//	xbench mvcc-sweep [--class=dcmd] [--size=S] [--engine=NAME] [--fractions=0,0.1,...] [--clients=N] [--ops=N] [--seed=N] [--check] [--out=FILE] [--gen-seed=N]
//	xbench serve     --engine=x-hive --class=dcmd --size=small [--addr=HOST:PORT] [--shard=I/N] [--vnodes=N] [--replica-of=ADDR] [--poll=D] [--journal=FILE] [--max-inflight=N] [--queue-wait=D] [--request-timeout=D] [--drain-timeout=D] [--no-load] [--gen-seed=N] [--scale=N]
//	xbench route     --shards=P1[+R1],P2,... [--class=dcmd] [--size=S] [--addr=HOST:PORT] [--read-pref=primary|replica] [--partial=failfast|degraded] [--fanout=N] [--vnodes=N] [--max-inflight=N] [--queue-wait=D] [--request-timeout=D] [--drain-timeout=D] [--no-load] [--gen-seed=N] [--scale=N]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"xbench/internal/analyze"
	"xbench/internal/bench"
	"xbench/internal/chaos"
	"xbench/internal/core"
	"xbench/internal/driver"
	"xbench/internal/gen"
	"xbench/internal/router"
	"xbench/internal/workload"
	"xbench/internal/xmldom"
	"xbench/internal/xmlschema"
)

// command is one subcommand row: the dispatch switch and the usage text
// are both generated from the same table, so they cannot drift apart.
type command struct {
	name    string
	summary string
	run     func(args []string) error
}

// commands lists every subcommand with its one-line description, in the
// order usage prints them.
var commands = []command{
	{"generate", "generate a benchmark database to a directory", cmdGenerate},
	{"schema", "print a class schema diagram (Figures 1-4), DTD or XSD", cmdSchema},
	{"tables", "print the static tables (Tables 1-3)", cmdTables},
	{"bench", "run the experiment grid and print Tables 4-9", cmdBench},
	{"report", "per-cell p50/p95/p99 metrics report with phase and I/O breakdown", cmdReport},
	{"chaos", "crash/recovery fault-injection grid over every engine x class", cmdChaos},
	{"ablation", "compare indexed vs sequential-scan query times", cmdAblation},
	{"analyze", "statistical analysis of a generated database (paper 2.1.1)", cmdAnalyze},
	{"verify", "cross-check every engine's answers against the native engine", cmdVerify},
	{"shape", "machine-checked paper-vs-measured shape comparison", cmdShape},
	{"load", "bulk-load one engine and report load statistics", cmdLoad},
	{"query", "run one workload query on one engine", cmdQuery},
	{"explain", "print the costed physical plan for one workload query", cmdExplain},
	{"workload", "run every defined query of a class on one engine", cmdWorkload},
	{"updates", "update workload (U1-U3): per-op p50/p95/p99 with I/O breakdown", cmdUpdates},
	{"throughput", "closed-loop multi-client driver: qps + per-query percentiles", cmdThroughput},
	{"mvcc-sweep", "snapshot-read latency and qps vs update fraction", cmdMVCCSweep},
	{"serve", "serve one engine over TCP for remote throughput/updates runs", cmdServe},
	{"route", "front a shard cluster: hash-partitioned scatter-gather router over TCP", cmdRoute},
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name, args := os.Args[1], os.Args[2:]
	if name == "help" || name == "-h" || name == "--help" {
		usage()
		return
	}
	for _, c := range commands {
		if c.name == name {
			if err := c.run(args); err != nil {
				fmt.Fprintf(os.Stderr, "xbench %s: %v\n", name, err)
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "xbench: unknown command %q\n", name)
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprintln(os.Stderr, "xbench — XBench XML DBMS benchmark (ICDE 2004) reproduction")
	fmt.Fprintln(os.Stderr, "\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(os.Stderr, `
engines: x-hive | xcolumn | xcollection | sql-server
classes: tcsd | tcmd | dcsd | dcmd
sizes:   small | normal | large

run 'xbench <command> --help' for the command's flags`)
}

func classFlag(fs *flag.FlagSet) *string { return fs.String("class", "dcmd", "database class") }
func sizeFlag(fs *flag.FlagSet) *string  { return fs.String("size", "small", "database size") }

func parseClassSize(classStr, sizeStr string) (core.Class, core.Size, error) {
	class, err := core.ParseClass(classStr)
	if err != nil {
		return 0, 0, err
	}
	size, err := core.ParseSize(sizeStr)
	if err != nil {
		return 0, 0, err
	}
	return class, size, nil
}

// engineNameByFlag resolves a CLI engine spelling to its paper row label.
func engineNameByFlag(name string) (string, error) {
	switch strings.ToLower(strings.NewReplacer("-", "", "_", "", " ", "").Replace(name)) {
	case "xhive", "native":
		return "X-Hive", nil
	case "xcolumn":
		return "Xcolumn", nil
	case "xcollection":
		return "Xcollection", nil
	case "sqlserver":
		return "SQL Server", nil
	}
	return "", fmt.Errorf("unknown engine %q", name)
}

func engineByFlag(name string) (core.Engine, error) {
	label, err := engineNameByFlag(name)
	if err != nil {
		return nil, err
	}
	return bench.NewEngine(label), nil
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	classStr, sizeStr := classFlag(fs), sizeFlag(fs)
	dir := fs.String("dir", "xbench-data", "output directory")
	seed := fs.Uint64("seed", 0, "generation seed")
	scale := fs.Int("scale", 1, "extra size multiplier (25 approximates the paper's absolute sizes)")
	fs.Parse(args)
	class, size, err := parseClassSize(*classStr, *sizeStr)
	if err != nil {
		return err
	}
	cfg := gen.Config{Seed: *seed, SizeMultiplier: *scale}
	db, err := cfg.Generate(class, size)
	if err != nil {
		return err
	}
	out := filepath.Join(*dir, db.Instance())
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	for _, d := range db.Docs {
		if err := os.WriteFile(filepath.Join(out, d.Name), d.Data, 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("generated %s: %d document(s), %d bytes -> %s\n",
		db.Instance(), len(db.Docs), db.Bytes(), out)
	return nil
}

func cmdSchema(args []string) error {
	fs := flag.NewFlagSet("schema", flag.ExitOnError)
	classStr := classFlag(fs)
	dtd := fs.Bool("dtd", false, "emit a DTD instead of the diagram")
	xsd := fs.Bool("xsd", false, "emit a W3C XML Schema instead of the diagram")
	fs.Parse(args)
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

func cmdTables(args []string) error {
	fs := flag.NewFlagSet("tables", flag.ExitOnError)
	table := fs.Int("table", 0, "table number (1-3); 0 = all static tables")
	fs.Parse(args)
	switch *table {
	case 0:
		bench.PrintTable1(os.Stdout)
		bench.PrintTable2(os.Stdout)
		bench.PrintTable3(os.Stdout)
	case 1:
		bench.PrintTable1(os.Stdout)
	case 2:
		bench.PrintTable2(os.Stdout)
	case 3:
		bench.PrintTable3(os.Stdout)
	default:
		return fmt.Errorf("static tables are 1-3; use 'xbench bench --table=%d' for measured tables", *table)
	}
	return nil
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	table := fs.Int("table", 0, "table number (4-9); 0 = all")
	sizesStr := fs.String("sizes", "small,normal,large", "comma-separated sizes")
	repeat := fs.Int("repeat", 3, "cold runs averaged per query cell")
	scale := fs.Int("scale", 1, "extra size multiplier over the library defaults")
	seed := fs.Uint64("seed", 0, "generation seed")
	csv := fs.Bool("csv", false, "emit CSV rows (header table,engine,class,size,value_ms)")
	fs.Parse(args)
	sizes, err := parseSizes(*sizesStr)
	if err != nil {
		return err
	}
	cfg := gen.Config{Seed: *seed, SizeMultiplier: *scale}
	r := bench.NewRunner(cfg, sizes, os.Stdout)
	r.Repeat = *repeat
	r.CSV = *csv
	switch {
	case *table == 0:
		return r.AllTables()
	case *table == 4:
		return r.Table4()
	case *table >= 5 && *table <= 9:
		if err := r.Table4(); err != nil { // loads feed the query tables
			return err
		}
		return r.QueryTable(*table)
	default:
		return fmt.Errorf("measured tables are 4-9")
	}
}

func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	sizeStr := sizeFlag(fs)
	seed := fs.Uint64("seed", 0, "fault-injection seed (same seed => same faults)")
	crashes := fs.Int("crashes", 3, "crash points per engine x class cell")
	readRate := fs.Float64("read-error-rate", 0, "transient read-fault probability during reload (0 = default, negative = off)")
	tornRate := fs.Float64("torn-rate", 0, "torn-page-write probability during reload (0 = default, negative = off)")
	scale := fs.Int("scale", 1, "extra size multiplier")
	genSeed := fs.Uint64("gen-seed", 0, "generation seed")
	updates := fs.Bool("updates", false, "also run the crash-during-update grid (U1-U3 on the multi-document classes)")
	updatesOnly := fs.Bool("updates-only", false, "run only the crash-during-update grid")
	fs.Parse(args)
	size, err := core.ParseSize(*sizeStr)
	if err != nil {
		return err
	}
	r := bench.NewRunner(gen.Config{Seed: *genSeed, SizeMultiplier: *scale}, []core.Size{size}, os.Stdout)
	cfg := chaos.Config{
		Seed:          *seed,
		CrashPoints:   *crashes,
		ReadErrorRate: *readRate,
		TornWriteRate: *tornRate,
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

func cmdAblation(args []string) error {
	fs := flag.NewFlagSet("ablation", flag.ExitOnError)
	sizeStr := sizeFlag(fs)
	qNum := fs.Int("q", 5, "query number")
	repeat := fs.Int("repeat", 3, "cold runs averaged per cell")
	scale := fs.Int("scale", 1, "extra size multiplier")
	fs.Parse(args)
	size, err := core.ParseSize(*sizeStr)
	if err != nil {
		return err
	}
	r := bench.NewRunner(gen.Config{SizeMultiplier: *scale}, []core.Size{size}, os.Stdout)
	r.Repeat = *repeat
	return r.IndexAblation(core.QueryID(*qNum), size)
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	classStr, sizeStr := classFlag(fs), sizeFlag(fs)
	seed := fs.Uint64("seed", 0, "generation seed")
	fs.Parse(args)
	class, size, err := parseClassSize(*classStr, *sizeStr)
	if err != nil {
		return err
	}
	db, err := gen.Config{Seed: *seed}.Generate(class, size)
	if err != nil {
		return err
	}
	r := analyze.New()
	for _, d := range db.Docs {
		doc, err := xmldom.Parse(d.Data)
		if err != nil {
			return err
		}
		r.AddDocument(doc)
	}
	r.Finish()
	_, err = r.WriteTo(os.Stdout)
	return err
}

func cmdVerify(args []string) error {
	ctx := context.Background()
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	classStr, sizeStr := classFlag(fs), sizeFlag(fs)
	seed := fs.Uint64("seed", 0, "generation seed")
	fs.Parse(args)
	class, size, err := parseClassSize(*classStr, *sizeStr)
	if err != nil {
		return err
	}
	db, err := gen.Config{Seed: *seed}.Generate(class, size)
	if err != nil {
		return err
	}
	oracle, err := engineByFlag("x-hive")
	if err != nil {
		return err
	}
	if _, _, err := workload.LoadAndIndex(ctx, oracle, db); err != nil {
		return err
	}
	fmt.Printf("verifying %s against %s\n", db.Instance(), oracle.Name())
	failures := 0
	for _, name := range []string{"xcolumn", "xcollection", "sql-server"} {
		e, err := engineByFlag(name)
		if err != nil {
			return err
		}
		if e.Supports(class, size) != nil {
			fmt.Printf("%-12s unsupported for %s %s (blank cells in the paper)\n",
				e.Name(), class, size)
			continue
		}
		if _, _, err := workload.LoadAndIndex(ctx, e, db); err != nil {
			return err
		}
		for _, q := range workload.QueryIDs(class) {
			want := workload.RunCold(ctx, oracle, class, q)
			if want.Err != nil {
				return fmt.Errorf("native %s: %w", q, want.Err)
			}
			got := workload.RunCold(ctx, e, class, q)
			if errors.Is(got.Err, core.ErrNoQuery) {
				continue // not hand-translated for this engine
			}
			if got.Err != nil {
				fmt.Printf("%-12s %-4s ERROR: %v\n", e.Name(), q, got.Err)
				failures++
				continue
			}
			mode := workload.ModeFor(class, q, e.Name())
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

func parseSizes(sizesStr string) ([]core.Size, error) {
	var sizes []core.Size
	for _, part := range strings.Split(sizesStr, ",") {
		s, err := core.ParseSize(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		sizes = append(sizes, s)
	}
	return sizes, nil
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	sizesStr := fs.String("sizes", "small,normal,large", "comma-separated sizes")
	repeat := fs.Int("repeat", 5, "cold runs per cell (percentiles need several)")
	warm := fs.Int("warm", 3, "warm runs per cell after the cold runs (0 disables)")
	format := fs.String("format", "table", "output format: table, json or csv")
	queriesStr := fs.String("q", "", "comma-separated query numbers (default: the paper tables' 5,12,17,8,14)")
	scale := fs.Int("scale", 1, "extra size multiplier")
	seed := fs.Uint64("seed", 0, "generation seed")
	fs.Parse(args)
	sizes, err := parseSizes(*sizesStr)
	if err != nil {
		return err
	}
	var queries []core.QueryID
	if *queriesStr != "" {
		for _, part := range strings.Split(*queriesStr, ",") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil {
				return fmt.Errorf("bad query number %q", part)
			}
			queries = append(queries, core.QueryID(n))
		}
	}
	r := bench.NewRunner(gen.Config{Seed: *seed, SizeMultiplier: *scale}, sizes, os.Stdout)
	return r.MetricsReport(bench.ReportOptions{
		Queries: queries,
		Repeat:  *repeat,
		Warm:    *warm,
		Format:  *format,
	})
}

func cmdShape(args []string) error {
	fs := flag.NewFlagSet("shape", flag.ExitOnError)
	sizesStr := fs.String("sizes", "small,normal,large", "comma-separated sizes")
	repeat := fs.Int("repeat", 2, "cold runs averaged per cell")
	scale := fs.Int("scale", 1, "extra size multiplier")
	fs.Parse(args)
	sizes, err := parseSizes(*sizesStr)
	if err != nil {
		return err
	}
	r := bench.NewRunner(gen.Config{SizeMultiplier: *scale}, sizes, os.Stdout)
	r.Repeat = *repeat
	return r.ShapeReport()
}

func cmdLoad(args []string) error {
	ctx := context.Background()
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	classStr, sizeStr := classFlag(fs), sizeFlag(fs)
	engineStr := fs.String("engine", "x-hive", "engine name")
	seed := fs.Uint64("seed", 0, "generation seed")
	fs.Parse(args)
	class, size, err := parseClassSize(*classStr, *sizeStr)
	if err != nil {
		return err
	}
	e, err := engineByFlag(*engineStr)
	if err != nil {
		return err
	}
	db, err := gen.Config{Seed: *seed}.Generate(class, size)
	if err != nil {
		return err
	}
	st, dur, err := workload.LoadAndIndex(ctx, e, db)
	if err != nil {
		return err
	}
	fmt.Printf("%s loaded %s (%d docs, %d bytes) in %v\n",
		e.Name(), db.Instance(), st.Documents, st.Bytes, dur)
	fmt.Printf("  rows=%d nodes=%d pageIO=%d skippedMixed=%d\n",
		st.Rows, st.Nodes, st.PageIO, st.SkippedMixed)
	return nil
}

func cmdQuery(args []string) error {
	ctx := context.Background()
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	classStr, sizeStr := classFlag(fs), sizeFlag(fs)
	engineStr := fs.String("engine", "x-hive", "engine name")
	qNum := fs.Int("q", 5, "query number (1-20)")
	show := fs.Bool("show", false, "print result items")
	seed := fs.Uint64("seed", 0, "generation seed")
	fs.Parse(args)
	class, size, err := parseClassSize(*classStr, *sizeStr)
	if err != nil {
		return err
	}
	e, err := engineByFlag(*engineStr)
	if err != nil {
		return err
	}
	db, err := gen.Config{Seed: *seed}.Generate(class, size)
	if err != nil {
		return err
	}
	if _, _, err := workload.LoadAndIndex(ctx, e, db); err != nil {
		return err
	}
	m := workload.RunCold(ctx, e, class, core.QueryID(*qNum))
	if m.Err != nil {
		return m.Err
	}
	fmt.Printf("%s %s/%s: %d item(s) in %v (cold), pageIO=%d order=%v mixedLost=%v\n",
		e.Name(), class, m.Query, m.Result.Count(), m.Elapsed,
		m.Result.PageIO, m.Result.OrderGuaranteed, m.Result.MixedContentLost)
	if *show {
		for i, item := range m.Result.Items {
			fmt.Printf("  [%d] %s\n", i+1, item)
		}
	}
	return nil
}

// cmdExplain prints the costed physical plan an engine would execute for
// one workload query, either against a freshly loaded local engine or a
// served engine over the wire (OpExplain).
func cmdExplain(args []string) error {
	ctx := context.Background()
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	classStr, sizeStr := classFlag(fs), sizeFlag(fs)
	engineStr := fs.String("engine", "x-hive", "engine name (local mode)")
	qNum := fs.Int("query", 5, "query number (1-20)")
	remote := fs.String("remote", "", "address of an `xbench serve` instance")
	seed := fs.Uint64("seed", 0, "generation seed (local mode)")
	fs.Parse(args)
	class, size, err := parseClassSize(*classStr, *sizeStr)
	if err != nil {
		return err
	}
	q := core.QueryID(*qNum)
	var (
		node *core.PlanNode
		name string
	)
	if *remote != "" {
		cl, err := dialRemote(*remote)
		if err != nil {
			return err
		}
		defer cl.Close()
		name = cl.Name()
		node, err = cl.Explain(ctx, q, workload.Params(class))
		if err != nil {
			return err
		}
	} else {
		e, err := engineByFlag(*engineStr)
		if err != nil {
			return err
		}
		db, err := gen.Config{Seed: *seed}.Generate(class, size)
		if err != nil {
			return err
		}
		if _, _, err := workload.LoadAndIndex(ctx, e, db); err != nil {
			return err
		}
		name = e.Name()
		node, err = core.Explain(ctx, e, q, workload.Params(class))
		if err != nil {
			return err
		}
	}
	fmt.Printf("%s %s/Q%d:\n%s", name, class, *qNum, node.Format())
	return nil
}

func cmdWorkload(args []string) error {
	ctx := context.Background()
	fs := flag.NewFlagSet("workload", flag.ExitOnError)
	classStr, sizeStr := classFlag(fs), sizeFlag(fs)
	engineStr := fs.String("engine", "x-hive", "engine name")
	seed := fs.Uint64("seed", 0, "generation seed")
	fs.Parse(args)
	class, size, err := parseClassSize(*classStr, *sizeStr)
	if err != nil {
		return err
	}
	e, err := engineByFlag(*engineStr)
	if err != nil {
		return err
	}
	db, err := gen.Config{Seed: *seed}.Generate(class, size)
	if err != nil {
		return err
	}
	if _, _, err := workload.LoadAndIndex(ctx, e, db); err != nil {
		return err
	}
	fmt.Printf("%s on %s (%d docs, %d bytes)\n", e.Name(), db.Instance(), len(db.Docs), db.Bytes())
	for _, q := range workload.QueryIDs(class) {
		m := workload.RunCold(ctx, e, class, q)
		if m.Err == core.ErrNoQuery {
			continue
		}
		if m.Err != nil {
			fmt.Printf("  %-4s %-34s error: %v\n", q, q.FunctionGroup(), m.Err)
			continue
		}
		fmt.Printf("  %-4s %-34s %6d item(s) %10v pageIO=%d\n",
			q, q.FunctionGroup(), m.Result.Count(), m.Elapsed, m.Result.PageIO)
	}
	return nil
}

type updatesOpts struct {
	class, size, engine, remote, format *string
	repeat, scale                       *int
	genSeed                             *uint64
}

func updatesFlags(fs *flag.FlagSet) *updatesOpts {
	return &updatesOpts{
		class:   classFlag(fs),
		size:    sizeFlag(fs),
		engine:  fs.String("engine", "", "engine name (empty = every engine)"),
		remote:  fs.String("remote", "", "address of an 'xbench serve' instance; measures that one engine over TCP"),
		repeat:  fs.Int("repeat", 5, "measured runs per update op (percentiles need several)"),
		format:  fs.String("format", "table", "output format: table, json or csv"),
		genSeed: fs.Uint64("gen-seed", 0, "generation seed"),
		scale:   fs.Int("scale", 1, "extra size multiplier"),
	}
}

func cmdUpdates(args []string) error {
	fs := flag.NewFlagSet("updates", flag.ExitOnError)
	o := updatesFlags(fs)
	fs.Parse(args)
	class, size, err := parseClassSize(*o.class, *o.size)
	if err != nil {
		return err
	}
	var engines []string
	if *o.engine != "" {
		label, err := engineNameByFlag(*o.engine)
		if err != nil {
			return err
		}
		engines = []string{label}
	}
	r := bench.NewRunner(gen.Config{Seed: *o.genSeed, SizeMultiplier: *o.scale}, []core.Size{size}, os.Stdout)
	if *o.remote != "" {
		// One remote row: the grid dials a fresh client per row (loads
		// travel over the wire; closing a client leaves the server up).
		probe, err := dialRemote(*o.remote)
		if err != nil {
			return err
		}
		probe.Close()
		engines = []string{probe.Name()}
		r.EngineList = engines
		addr := *o.remote
		r.NewEngineFn = func(string) core.Engine {
			cl, err := dialRemote(addr)
			if err != nil {
				return unreachableEngine{name: probe.Name(), err: err}
			}
			return cl
		}
	}
	return r.UpdatesReport(bench.UpdatesOptions{
		Class:   class,
		Repeat:  *o.repeat,
		Format:  *o.format,
		Engines: engines,
	})
}

// parseClients parses a comma-separated client-count list like "1,2,4,8".
func parseClients(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad client count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

type throughputOpts struct {
	class, size, engine, remote, clients, format *string
	skipLoad                                     *bool
	ops, scale, updateSeqBase                    *int
	duration, think                              *time.Duration
	seed, genSeed                                *uint64
	updateFraction                               *float64
	router                                       *routerOpts
}

func throughputFlags(fs *flag.FlagSet) *throughputOpts {
	return &throughputOpts{
		class:          classFlag(fs),
		size:           sizeFlag(fs),
		engine:         fs.String("engine", "x-hive", "engine name (ignored with --remote/--shards: the servers picked it)"),
		remote:         fs.String("remote", "", "address of an 'xbench serve' instance; drives it over TCP instead of in-process"),
		skipLoad:       fs.Bool("skip-load", false, "with --remote/--shards: assume the server(s) already loaded, skip the wire load"),
		clients:        fs.String("clients", "1,2,4,8", "comma-separated client counts to sweep"),
		ops:            fs.Int("ops", 0, "queries per client (0 = use --duration)"),
		duration:       fs.Duration("duration", 0, "wall-clock bound per step (used when --ops=0; 0 selects 50 ops/client)"),
		think:          fs.Duration("think", 0, "closed-loop think time between queries (0 = 2ms default, negative disables)"),
		seed:           fs.Uint64("seed", 1, "query-mix seed (same seed + clients => same per-client op sequence)"),
		updateFraction: fs.Float64("update-fraction", 0, "per-op probability of a document update instead of a query (mixed read/write mode; needs a multi-document class)"),
		updateSeqBase:  fs.Int("update-seq-base", 0, "first update-document sequence number; raise it when re-running a mixed sweep against a server that already consumed earlier sequences"),
		format:         fs.String("format", "table", "output format: table, json or csv"),
		genSeed:        fs.Uint64("gen-seed", 0, "generation seed"),
		scale:          fs.Int("scale", 1, "extra size multiplier"),
		router:         routerFlagSet(fs),
	}
}

func cmdThroughput(args []string) error {
	ctx := context.Background()
	fs := flag.NewFlagSet("throughput", flag.ExitOnError)
	o := throughputFlags(fs)
	fs.Parse(args)
	class, size, err := parseClassSize(*o.class, *o.size)
	if err != nil {
		return err
	}
	clients, err := parseClients(*o.clients)
	if err != nil {
		return err
	}
	var e core.Engine
	var rt *router.Router
	switch {
	case *o.remote != "" && *o.router.shards != "":
		return fmt.Errorf("--remote and --shards are mutually exclusive")
	case *o.remote != "":
		cl, err := dialRemote(*o.remote)
		if err != nil {
			return err
		}
		defer cl.Close()
		e = cl
	case *o.router.shards != "":
		if rt, err = o.router.dial(); err != nil {
			return err
		}
		defer rt.Close()
		e = rt
	default:
		if e, err = engineByFlag(*o.engine); err != nil {
			return err
		}
	}
	if (*o.remote == "" && rt == nil) || !*o.skipLoad {
		db, err := gen.Config{Seed: *o.genSeed, SizeMultiplier: *o.scale}.Generate(class, size)
		if err != nil {
			return err
		}
		if _, _, err := workload.LoadAndIndex(ctx, e, db); err != nil {
			return err
		}
	}
	reports, err := driver.Sweep(ctx, e, class, clients, driver.Config{
		OpsPerClient:   *o.ops,
		Duration:       *o.duration,
		Seed:           *o.seed,
		Think:          *o.think,
		UpdateFraction: *o.updateFraction,
		UpdateSeqBase:  *o.updateSeqBase,
	})
	if err != nil {
		return err
	}
	// With --shards, append the per-shard routing counters to the report
	// (on stderr for the machine formats, so their output stays parseable).
	shardReport := func() {
		if rt == nil {
			return
		}
		w := os.Stdout
		if *o.format != "table" {
			w = os.Stderr
		}
		printShardMetrics(w, rt.Metrics())
	}
	switch *o.format {
	case "table":
		driver.WriteTable(os.Stdout, reports)
		shardReport()
		return nil
	case "json":
		err = driver.WriteJSON(os.Stdout, reports)
		shardReport()
		return err
	case "csv":
		err = driver.WriteCSV(os.Stdout, reports)
		shardReport()
		return err
	default:
		return fmt.Errorf("unknown format %q (want table, json or csv)", *o.format)
	}
}
