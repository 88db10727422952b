package main

import (
	"io"
	"path/filepath"
	"reflect"
	"testing"

	"xbench/internal/core"
)

const specFile = "../../BENCHMARK.json"

func quickRun(t *testing.T, sp *spec, workload string, trace bool) result {
	t.Helper()
	dir := t.TempDir()
	res, err := execute(runConfig{
		workload: workload, seed: 7, seconds: refSeconds, trace: trace, quick: true,
		scratch: filepath.Join(dir, "scratch"), traceDir: dir, out: io.Discard,
	}, sp)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return res
}

// healthyZero are per-layer metrics that read zero on every workload
// when nothing is wrong (failure and fault counters), or that need more
// samples than the quick scale issues (tail percentiles), so the
// "measured somewhere" audit cannot ask them to be non-zero.
var healthyZero = map[string]bool{
	"failed_share": true, "server.req.rejected": true, "server.req.deduped": true,
	"client.failovers": true, "router.shard.errors": true,
	"pager.wal.append": true, "pager.snap.read.version": true, "pager.evict": true,
	"read_p99_ms": true, "update_p95_ms": true, "open_p99_ms": true, "wire.rtt_p99_us": true,
	"driver.lateness_p99_ms":     true,
	"engines.native.exec_p99_us": true, "engines.xcolumn.exec_p99_us": true,
	"engines.xcollection.exec_p99_us": true, "engines.sqlserver.exec_p99_us": true,
	// A difference of two noisy quick-scale rungs: any sign, possibly 0.
	"router.overhead_p50_us": true,
	// The first update document the ring gives shard 0 is the ninth; the
	// quick scale inserts fewer, so shard 0's journal is empty.
	"updatelog.replay_ms_per_record": true,
}

// TestQuickAllWorkloads runs every workload on every engine, untraced
// and traced, at smoke scale and audits BENCHMARK.json against what the
// program emits in both directions: every declared metric is emitted by
// every workload, nothing undeclared is, every end-to-end value is
// non-zero, and every per-layer metric is measured by at least one
// workload — a name nobody fills in is a dead declaration.
func TestQuickAllWorkloads(t *testing.T) {
	sp, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		// The race pass runs -short and multiplies run time tenfold: one
		// served workload covers the concurrent client loop.
		if res := quickRun(t, sp, "served_read", false); !res.Correct {
			t.Errorf("served_read: failed=%d attempted=%d", res.Failed, res.Attempted)
		}
		return
	}
	if len(sp.Paths) != 1 || sp.Paths[0] != "benchmarks" {
		t.Errorf("paths = %v, want only benchmarks", sp.Paths)
	}
	if sp.RunSeconds != refSeconds {
		t.Errorf("run_seconds = %d but the op counts are frozen for %d", sp.RunSeconds, refSeconds)
	}
	for _, w := range sp.Workloads {
		if _, ok := legPlans[w.Name]; !ok {
			t.Errorf("workload %q has no frozen leg plan", w.Name)
		}
		for _, key := range engineKeys {
			if legPlans[w.Name][key].ops == 0 {
				t.Errorf("workload %q has no op count for engine %q", w.Name, key)
			}
		}
	}
	if len(legPlans) != len(sp.Workloads) {
		t.Errorf("%d leg plans for %d declared workloads", len(legPlans), len(sp.Workloads))
	}

	measured := map[string]bool{}
	for _, w := range sp.Workloads {
		for _, trace := range []bool{false, true} {
			res := quickRun(t, sp, w.Name, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := sp.metricsFor(trace)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				mv, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: declared metric %q not emitted", w.Name, trace, m.Name)
				case mv.Unit != m.Unit:
					t.Errorf("%s: metric %q has unit %q, declared %q", w.Name, m.Name, mv.Unit, m.Unit)
				case !trace && !(mv.Value > 0):
					t.Errorf("%s: end-to-end metric %q = %v, must never be 0", w.Name, m.Name, mv.Value)
				}
				if mv.Value != 0 {
					measured[m.Name] = true
				}
			}
		}
	}
	for _, m := range sp.PerLayer {
		if !measured[m.Name] && !healthyZero[m.Name] {
			t.Errorf("per-layer metric %q is zero on every workload: nothing measures it", m.Name)
		}
	}
}

// countMetrics are per-layer values that are counts of work, not times:
// the same seed must give exactly the same value on every run.
var countMetrics = []string{
	"driver.ops", "server.req.admitted", "cold_pages", "pager.read", "pager.write",
	"relational.probe", "btree.split", "btree.height", "shredder.rows_per_doc",
	"wire.bytes_per_op", "router.shard.routed", "router.shard.scatter",
	"engines.native.cold_pages", "engines.sqlserver.cold_pages",
	"engines.native.space_amp", "engines.xcollection.space_amp",
}

func TestSameSeedSameCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("four more quick runs; see TestQuickAllWorkloads")
	}
	sp, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"paper_cold", "served_read"} {
		a, b := quickRun(t, sp, w, true), quickRun(t, sp, w, true)
		for _, name := range countMetrics {
			if a.Metrics[name].Value != b.Metrics[name].Value {
				t.Errorf("%s: %s = %v then %v with the same seed", w, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
	}
}

func TestSameSeedSameStream(t *testing.T) {
	mix := []core.QueryID{core.Q1, core.Q2, core.Q5, core.Q16}
	a, b := mixedStreams(3, 2, mix, blockTenthUpdates, 600), mixedStreams(3, 2, mix, blockTenthUpdates, 600)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("mixedStreams is not a function of its arguments")
	}
	if reflect.DeepEqual(a, mixedStreams(4, 2, mix, blockTenthUpdates, 600)) {
		t.Error("another seed gave the same stream")
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Error("two clients share a stream")
	}
	// Composition is fixed by the arguments alone: a tenth updates, a
	// third of them each op, whatever the seed.
	for seed := uint64(1); seed < 5; seed++ {
		for _, stream := range mixedStreams(seed, 2, mix, blockTenthUpdates, 600) {
			byOp := map[string]int{}
			for _, op := range stream {
				if op.Update != 0 {
					byOp[op.Update.String()]++
				}
			}
			if len(stream) != 300 || byOp["U1"] != 10 || byOp["U2"] != 10 || byOp["U3"] != 10 {
				t.Errorf("seed %d: %d ops with updates %v, want 300 with 10 of each", seed, len(stream), byOp)
			}
		}
	}
	if !reflect.DeepEqual(readStreams(3, 2, mix, 100), readStreams(3, 2, mix, 100)) {
		t.Error("readStreams is not a function of its arguments")
	}
}
