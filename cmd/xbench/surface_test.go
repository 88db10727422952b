package main

import (
	"bytes"
	"context"
	"flag"
	"regexp"
	"strings"
	"testing"
	"time"

	"xbench/internal/bench"
	"xbench/internal/core"
	"xbench/internal/driver"
	"xbench/internal/gen"
)

// The surface ratchet. The CLI has no hand-kept usage text to drift:
// `xbench help` is printed from the command table and a command's --help
// from the flags it registered. These tests keep the surface from growing
// back: the command count has a ceiling, help is exactly the registered
// flags, and a flag that several commands share means one thing.

// TestUsageCoversEveryCommand: at most 11 commands, each listed with its
// summary by `xbench help`.
func TestUsageCoversEveryCommand(t *testing.T) {
	if len(commands) > 11 {
		t.Errorf("%d subcommands; the ceiling is 11 — fold a new view into an existing command", len(commands))
	}
	var out bytes.Buffer
	usage(&out)
	seen := map[string]bool{}
	for _, c := range commands {
		if seen[c.name] {
			t.Errorf("command %q listed twice", c.name)
		}
		seen[c.name] = true
		if !regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(c.name) + ` +` + regexp.QuoteMeta(c.summary) + `$`).MatchString(out.String()) {
			t.Errorf("`xbench help` does not list %q with its summary:\n%s", c.name, out.String())
		}
	}
}

// TestUsageMatchesFlags: every command's --help lists exactly the flags it
// registers, and a flag registered by more than one command has the same
// default and the same help string in all of them.
func TestUsageMatchesFlags(t *testing.T) {
	type meaning struct{ command, def, usage string }
	shared := map[string]meaning{}
	helpFlag := regexp.MustCompile(`(?m)^  -([a-z][a-z0-9-]*)`)
	for _, c := range commands {
		t.Run(c.name, func(t *testing.T) {
			fs, _ := c.flagSet(flag.ContinueOnError)
			var help bytes.Buffer
			fs.SetOutput(&help)
			if err := fs.Parse([]string{"--help"}); err != flag.ErrHelp {
				t.Fatalf("--help: %v", err)
			}
			if !strings.Contains(help.String(), c.summary) {
				t.Errorf("--help does not carry the command's summary:\n%s", help.String())
			}
			listed := map[string]bool{}
			for _, m := range helpFlag.FindAllStringSubmatch(help.String(), -1) {
				listed[m[1]] = true
			}
			fs.VisitAll(func(f *flag.Flag) {
				if !listed[f.Name] {
					t.Errorf("flag --%s is registered but missing from --help", f.Name)
				}
				delete(listed, f.Name)
				if was, ok := shared[f.Name]; !ok {
					shared[f.Name] = meaning{c.name, f.DefValue, f.Usage}
				} else if was.def != f.DefValue || was.usage != f.Usage {
					t.Errorf("--%s means two things: default %q, %q in %s but default %q, %q here",
						f.Name, was.def, was.usage, was.command, f.DefValue, f.Usage)
				}
			})
			for name := range listed {
				t.Errorf("--help mentions --%s but the command does not register it", name)
			}
		})
	}
	// The spellings this CLI once had two of stay merged, and the router
	// knobs no caller set stay deleted: one scatter policy, primary-first
	// reads, no fan-out cap, one ring shape on both sides of the wire. A
	// replica's pull waits at its primary for the next journal sync, so
	// it has no poll interval. A served engine loads its own database, so
	// no command starts one empty or skips loading a served target. A
	// mixed run deletes the documents it inserted, so a re-run against
	// the same server needs no sequence offset.
	for _, gone := range []string{"csv", "query", "skip-load", "fractions", "out",
		"partial", "fanout", "read-pref", "vnodes", "poll", "no-load", "update-seq-base"} {
		if m, ok := shared[gone]; ok {
			t.Errorf("--%s is back (in %s); it was merged into another flag or deleted", gone, m.command)
		}
	}
}

// tableStub answers every query with nothing, instantly.
type tableStub struct{ name string }

func (s tableStub) Name() string                         { return s.name }
func (s tableStub) Supports(core.Class, core.Size) error { return nil }
func (s tableStub) BuildIndexes([]core.IndexSpec) error  { return nil }
func (s tableStub) ColdReset()                           {}
func (s tableStub) PageIO() int64                        { return 0 }
func (s tableStub) Close() error                         { return nil }
func (s tableStub) Load(context.Context, *core.Database) (core.LoadStats, error) {
	return core.LoadStats{}, nil
}
func (s tableStub) Execute(context.Context, core.QueryID, core.Params) (core.Result, error) {
	return core.Result{}, nil
}
func (s tableStub) InsertDocument(context.Context, string, []byte) error  { return core.ErrReadOnly }
func (s tableStub) ReplaceDocument(context.Context, string, []byte) error { return core.ErrReadOnly }
func (s tableStub) DeleteDocument(context.Context, string) error          { return core.ErrReadOnly }

// TestBenchPrintsOnlyTheTableAsked: `bench --table=5` once printed Table 4
// first (and --format=csv its rows) "so loads feed the query tables";
// engines load lazily, so the table asked for is the only one printed.
func TestBenchPrintsOnlyTheTableAsked(t *testing.T) {
	for _, format := range []string{"csv", "table"} {
		var out bytes.Buffer
		r := bench.NewRunner(gen.Config{DictEntries: 20, Articles: 4, Items: 10, Orders: 20},
			[]core.Size{core.Small}, &out)
		r.Format = format
		r.EngineList = []string{"stub"}
		r.NewEngineFn = func(name string) core.Engine { return tableStub{name} }
		if err := runBench(r, benchOpts{view: "tables", table: 5}); err != nil {
			t.Fatal(err)
		}
		if format == "table" {
			if !strings.Contains(out.String(), "Table 5.") || strings.Contains(out.String(), "Table 4.") {
				t.Errorf("--table=5 printed more or less than Table 5:\n%s", out.String())
			}
			continue
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if lines[0] != "table,engine,class,size,value_ms" || len(lines) != 1+4 {
			t.Fatalf("want the header and one row per class:\n%s", out.String())
		}
		for _, line := range lines[1:] {
			if !strings.HasPrefix(line, "5,") {
				t.Errorf("--table=5 --format=csv emitted a row of another table: %q", line)
			}
		}
	}
}

func TestCheckFlatReads(t *testing.T) {
	step := func(clients int, frac float64, p99 time.Duration) driver.Report {
		return driver.Report{Clients: clients, UpdateFraction: frac, ReadP99: p99}
	}
	flat := []driver.Report{
		step(2, 0, 2*time.Millisecond), step(2, 0.3, 3*time.Millisecond), step(2, 0.5, 40*time.Millisecond),
	}
	if err := checkFlatReads(flat, []int{2}); err != nil {
		t.Errorf("1.5x at the gate fraction (and a tail past it) rejected: %v", err)
	}
	steep := []driver.Report{step(2, 0, 2*time.Millisecond), step(2, 0.4, 5*time.Millisecond)}
	if err := checkFlatReads(steep, []int{2}); err == nil {
		t.Error("2.5x at the gate fraction accepted")
	}
	if err := checkFlatReads(flat[1:], []int{2}); err == nil {
		t.Error("a sweep without a read-only step accepted")
	}
	if err := checkFlatReads(flat, []int{2, 4}); err == nil {
		t.Error("a client count with no steps accepted")
	}
}
