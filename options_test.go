package xbench

import (
	"context"
	"testing"

	"xbench/internal/driver"
	"xbench/internal/metrics"
	"xbench/internal/pager"
)

// TestNewEngineNames: every recognized name (and alias) constructs the
// right engine; unknown names error instead of panicking.
func TestNewEngineNames(t *testing.T) {
	cases := map[string]string{
		"native":      "X-Hive",
		"x-hive":      "X-Hive",
		"XHive":       "X-Hive",
		"xcolumn":     "Xcolumn",
		"Xcollection": "Xcollection",
		"sqlserver":   "SQL Server",
		"SQL Server":  "SQL Server",
	}
	for name, want := range cases {
		e, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if e.Name() != want {
			t.Errorf("New(%q).Name() = %q, want %q", name, e.Name(), want)
		}
	}
	if _, err := New("oracle"); err == nil {
		t.Fatal("unknown engine name accepted")
	}
}

// TestNewOptions: WithFaultPolicy and WithMetrics reach the engine's
// pager; WithPoolPages at least constructs.
func TestNewOptions(t *testing.T) {
	reg := metrics.NewRegistry()
	e, err := New("native",
		WithPoolPages(64),
		WithFaultPolicy(FaultPolicy{Seed: 7, CrashAfterOps: 1}),
		WithMetrics(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	p := e.(interface{ Pager() *pager.Pager }).Pager()
	db, err := Generate(DCMD, Small)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Load(context.Background(), db); !pager.IsCrash(err) {
		t.Fatalf("Load under a crash point at the second disk op = %v, want the crash", err)
	}
	if p.Metrics() != reg {
		t.Fatal("metrics registry not attached")
	}
	if _, err := New("xcollection", WithPoolPages(32)); err != nil {
		t.Fatal(err)
	}
}

// mustNew is New for tests that construct a known engine.
func mustNew(t *testing.T, name string, opts ...Option) Engine {
	t.Helper()
	e, err := New(name, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestThroughputFacade: the closed-loop driver (driver.Run) runs end to
// end on an engine New built and LoadAndIndex loaded, and reports qps and
// per-query percentiles.
func TestThroughputFacade(t *testing.T) {
	ctx := context.Background()
	db, err := Generate(DCSD, Small)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New("native")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAndIndex(ctx, e, db); err != nil {
		t.Fatal(err)
	}
	rep, err := driver.Run(ctx, e, DCSD, driver.Config{
		Clients:      2,
		OpsPerClient: 4,
		Queries:      []QueryID{Q1, Q5},
		Think:        -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 8 || rep.Throughput <= 0 {
		t.Fatalf("report: ops=%d qps=%f", rep.Ops, rep.Throughput)
	}
	if len(rep.Cells) == 0 || rep.Cells[0].P50 <= 0 {
		t.Fatalf("no latency cells: %+v", rep.Cells)
	}
}
