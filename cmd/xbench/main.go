// Command xbench is the command-line front end of the XBench benchmark
// reproduction: it generates benchmark databases, prints the class schemas
// (the paper's Figures 1-4), regenerates the paper's Tables 1-9, runs
// workload queries and the closed-loop driver against an engine in
// process or over TCP, and serves engines and shard clusters.
//
// `xbench help` lists the commands and `xbench <command> --help` prints a
// command's flags; both are generated from the tables and flag sets in
// this package, which are the only description of the surface.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"xbench/internal/bench"
	"xbench/internal/client"
	"xbench/internal/core"
	"xbench/internal/gen"
	"xbench/internal/workload"
)

// command is one subcommand row: the dispatch loop, the usage text and
// each command's --help are all generated from this table and the flags
// a command registers, so they cannot drift apart.
type command struct {
	name    string
	summary string
	// setup registers the command's flags on fs and returns the function
	// that runs it once they are parsed.
	setup func(fs *flag.FlagSet) func() error
}

// commands lists every subcommand with its one-line description, in the
// order usage prints them.
var commands = []command{
	{"generate", "generate a benchmark database to a directory", setupGenerate},
	{"schema", "print a class schema diagram (Figures 1-4), DTD or XSD", setupSchema},
	{"analyze", "statistical analysis of a generated database (paper 2.1.1)", setupAnalyze},
	{"verify", "cross-check engines' (or a served target's) answers against the native engine", setupVerify},
	{"bench", "the experiment grid: Tables 1-9, metrics report, shape checks, index ablation, update workload", setupBench},
	{"chaos", "crash/recovery fault-injection grid over every engine x class", setupChaos},
	{"query", "load one engine and run, or explain, workload queries on it", setupQuery},
	{"throughput", "closed-loop multi-client driver: qps + latency vs clients and update fraction", setupThroughput},
	{"serve", "serve one engine over TCP for --remote and --shards runs", setupServe},
	{"route", "front a shard cluster: hash-partitioned scatter-gather router over TCP", setupRoute},
}

// flagSet builds the command's flag set and its run function. --help
// prints the summary and the registered flags, nothing hand-kept.
func (c command) flagSet(onError flag.ErrorHandling) (*flag.FlagSet, func() error) {
	fs := flag.NewFlagSet("xbench "+c.name, onError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "xbench %s — %s\n\nflags:\n", c.name, c.summary)
		fs.PrintDefaults()
	}
	return fs, c.setup(fs)
}

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	name, args := os.Args[1], os.Args[2:]
	if name == "help" || name == "-h" || name == "--help" {
		usage(os.Stderr)
		return
	}
	for _, c := range commands {
		if c.name == name {
			fs, run := c.flagSet(flag.ExitOnError)
			fs.Parse(args)
			if fs.NArg() > 0 {
				run = func() error {
					return fmt.Errorf("unexpected argument %q (flags are --name=value)", fs.Arg(0))
				}
			}
			if err := run(); err != nil {
				fmt.Fprintf(os.Stderr, "xbench %s: %v\n", name, err)
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "xbench: unknown command %q\n", name)
	usage(os.Stderr)
	os.Exit(2)
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "xbench — XBench XML DBMS benchmark (ICDE 2004) reproduction")
	fmt.Fprintln(w, "\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-10s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w, `
engines: x-hive | xcolumn | xcollection | sql-server
classes: tcsd | tcmd | dcsd | dcmd
sizes:   small | normal | large | huge

run 'xbench <command> --help' for the command's flags`)
}

// The flag groups below are the only registration site of every flag two
// commands share, so a shared flag has one spelling, one default and one
// help string wherever it appears.

func classFlag(fs *flag.FlagSet) *string {
	return fs.String("class", "dcmd", "database class: tcsd, tcmd, dcsd or dcmd")
}

func sizeFlag(fs *flag.FlagSet) *string {
	return fs.String("size", "small", "database size: small, normal, large or huge")
}

// genOpts are the generator's two knobs. --seed is not among them: it
// seeds a run (the driver's op mix), never the data.
type genOpts struct {
	scale *int
	seed  *uint64
}

func genFlags(fs *flag.FlagSet) genOpts {
	return genOpts{
		scale: fs.Int("scale", 1, "extra size multiplier over the library defaults (25 approximates the paper's absolute sizes)"),
		seed:  fs.Uint64("gen-seed", 0, "database generation seed"),
	}
}

func (g genOpts) config() gen.Config { return gen.Config{Seed: *g.seed, SizeMultiplier: *g.scale} }

// database is the generated database a command works on.
type database struct {
	class, size *string
	gen         genOpts
}

func databaseFlags(fs *flag.FlagSet) *database {
	return &database{class: classFlag(fs), size: sizeFlag(fs), gen: genFlags(fs)}
}

func (d *database) parse() (core.Class, core.Size, error) {
	class, err := core.ParseClass(*d.class)
	if err != nil {
		return 0, 0, err
	}
	size, err := core.ParseSize(*d.size)
	return class, size, err
}

func (d *database) generate() (*core.Database, error) {
	class, size, err := d.parse()
	if err != nil {
		return nil, err
	}
	return d.gen.config().Generate(class, size)
}

func engineFlag(fs *flag.FlagSet) *string {
	return fs.String("engine", "x-hive", "in-process engine: x-hive, xcolumn, xcollection or sql-server")
}

func formatFlag(fs *flag.FlagSet) *string {
	return fs.String("format", "table", "output format: table, json or csv")
}

func seedFlag(fs *flag.FlagSet) *uint64 {
	return fs.Uint64("seed", 0, "seed of the run itself, not of the data: the op mix (0 selects the driver's default); same seed, same run")
}

func queryFlag(fs *flag.FlagSet) *string {
	return fs.String("q", "", "comma-separated query numbers (1-20); empty selects the command's whole set: every query of the class (query), the paper tables' 5,12,17,8,14 (bench)")
}

// remote names a served target: one `xbench serve` or `xbench route`
// address, or a shard list coordinated by an in-process router. A served
// target holds the database its servers loaded; nothing loads it here.
type remote struct {
	addr   *string
	shards *string
}

func remoteFlag(fs *flag.FlagSet) *string {
	return fs.String("remote", "", "address of an 'xbench serve' or 'xbench route' instance to drive over TCP instead of an in-process engine")
}

func remoteFlags(fs *flag.FlagSet) *remote {
	return &remote{addr: remoteFlag(fs), shards: shardsFlag(fs)}
}

func (r *remote) named() bool { return *r.addr != "" || *r.shards != "" }

// dialRemote connects to an `xbench serve` instance with the default
// client tuning: a multi-worker driver shares a few multiplexed
// connections instead of one socket per in-flight request.
func dialRemote(addr string) (*client.Client, error) {
	return client.Dial(addr, client.Config{})
}

// newTarget returns the engine a command drives, not yet loaded: the
// served target when one is named, else a fresh in-process engine.
func newTarget(engine string, r *remote) (core.Engine, error) {
	switch {
	case *r.addr != "" && *r.shards != "":
		return nil, fmt.Errorf("--remote and --shards are mutually exclusive")
	case *r.addr != "":
		return dialRemote(*r.addr)
	case *r.shards != "":
		return dialShards(*r.shards)
	}
	return bench.EngineByName(engine, 0)
}

// load bulk-loads db into e and builds the Table 3 indexes, reporting
// what the load did on stderr (stdout stays the command's own output).
func load(ctx context.Context, e core.Engine, db *core.Database) error {
	st, dur, err := workload.LoadAndIndex(ctx, e, db)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loaded %s into %s (%d docs, %d bytes) in %v: rows=%d nodes=%d pageIO=%d skippedMixed=%d\n",
		db.Instance(), e.Name(), st.Documents, st.Bytes, dur, st.Rows, st.Nodes, st.PageIO, st.SkippedMixed)
	return nil
}

// open is newTarget plus, for an in-process engine, the load of the
// generated database (a served target holds its own).
func open(ctx context.Context, d *database, engine string, r *remote) (core.Engine, error) {
	e, err := newTarget(engine, r)
	if err != nil || r.named() {
		return e, err
	}
	db, err := d.generate()
	if err == nil {
		err = load(ctx, e, db)
	}
	if err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// parseList splits a comma-separated flag value and converts each part.
func parseList[T any](s, what string, conv func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		v, err := conv(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad %s %q: %w", what, part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseQueries parses a --q list; empty is nil (the command's own set).
func parseQueries(s string) ([]core.QueryID, error) {
	if s == "" {
		return nil, nil
	}
	return parseList(s, "query number", func(p string) (core.QueryID, error) {
		n, err := strconv.Atoi(p)
		if err == nil && (n < 1 || n > 20) {
			err = fmt.Errorf("queries are 1-20")
		}
		return core.QueryID(n), err
	})
}
