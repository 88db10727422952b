package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"xbench/internal/core"
	"xbench/internal/driver"
	"xbench/internal/gen"
	"xbench/internal/workload"
)

// cmdMVCCSweep measures what the update workload does to read latency as
// the update fraction grows (DESIGN.md §15, EXPERIMENTS.md): one
// FractionSweep on a freshly loaded engine. Queries read pinned
// snapshots and never queue behind the engine write lock, so the read
// p99 should stay roughly flat from 0% to 50% updates; --check turns the
// flat-curve claim into an exit code for CI.
func cmdMVCCSweep(args []string) error {
	ctx := context.Background()
	fs := flag.NewFlagSet("mvcc-sweep", flag.ExitOnError)
	classStr, sizeStr := classFlag(fs), sizeFlag(fs)
	engineStr := fs.String("engine", "sql-server", "engine name")
	fractionsStr := fs.String("fractions", "0,0.1,0.2,0.3,0.4,0.5", "comma-separated update fractions to sweep")
	clients := fs.Int("clients", 4, "concurrent clients per step")
	ops := fs.Int("ops", 30, "ops per client per step")
	seed := fs.Uint64("seed", 1, "op-mix seed")
	check := fs.Bool("check", false, "fail unless snapshot read p99 at >=30% updates stays within 2x the read-only p99")
	out := fs.String("out", "", "also write the table to this file")
	genSeed := fs.Uint64("gen-seed", 0, "generation seed")
	fs.Parse(args)
	class, size, err := parseClassSize(*classStr, *sizeStr)
	if err != nil {
		return err
	}
	fractions, err := parseFractions(*fractionsStr)
	if err != nil {
		return err
	}
	db, err := gen.Config{Seed: *genSeed}.Generate(class, size)
	if err != nil {
		return err
	}

	e, err := engineByFlag(*engineStr)
	if err != nil {
		return err
	}
	defer e.Close()
	if _, _, err := workload.LoadAndIndex(ctx, e, db); err != nil {
		return err
	}
	cfg := driver.Config{Clients: *clients, OpsPerClient: *ops, Seed: *seed, Think: -1}
	pts, err := driver.FractionSweep(ctx, e, class, fractions, cfg)
	if err != nil {
		return err
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}
	writeMVCCSweep(w, *engineStr, class, size, pts)

	if *check {
		return checkFlatReads(pts)
	}
	return nil
}

// parseFractions parses "0,0.1,0.3" into floats, requiring each in [0, 1).
func parseFractions(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || f < 0 || f >= 1 {
			return nil, fmt.Errorf("bad update fraction %q (want values in [0, 1))", part)
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no update fractions given")
	}
	return out, nil
}

// writeMVCCSweep prints the sweep as one row per fraction: read latency
// and throughput.
func writeMVCCSweep(w io.Writer, engine string, class core.Class, size core.Size, pts []driver.FractionPoint) {
	fmt.Fprintf(w, "mvcc-sweep engine=%s class=%s size=%s (read latency vs update fraction)\n", engine, class, size)
	fmt.Fprintf(w, "%-8s %12s %12s %10s\n", "updates", "read p50", "read p99", "qps")
	for _, pt := range pts {
		r := pt.Report
		fmt.Fprintf(w, "%-8s %12s %12s %10.1f\n", fmt.Sprintf("%.0f%%", pt.Fraction*100),
			r.ReadP50, r.ReadP99, r.Throughput)
	}
}

// checkFlatReads is the CI smoke gate: the point nearest 30% updates
// must keep its aggregate read p99 within 2x of the sweep's read-only
// (fraction 0) p99. Higher fractions stay informational —
// on a small host the far tail is dominated by CPU time-sharing with
// the update rewrites, which MVCC cannot (and does not claim to)
// remove; the gate pins the lock-wait claim, not the scheduler.
func checkFlatReads(pts []driver.FractionPoint) error {
	var readOnly, gate *driver.FractionPoint
	for i := range pts {
		pt := &pts[i]
		if pt.Fraction == 0 {
			readOnly = pt
		}
		if pt.Fraction >= 0.3 && (gate == nil || pt.Fraction < gate.Fraction) {
			gate = pt
		}
	}
	if readOnly == nil || gate == nil {
		return fmt.Errorf("--check needs a fraction-0 point and a point at >=30%% updates")
	}
	if floor := readOnly.Report.ReadP99; gate.Report.ReadP99 > 2*floor {
		return fmt.Errorf("read p99 %v at %.0f%% updates exceeds 2x the read-only p99 %v",
			gate.Report.ReadP99, gate.Fraction*100, floor)
	}
	return nil
}
