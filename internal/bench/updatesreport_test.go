package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"xbench/internal/client"
	"xbench/internal/core"
	"xbench/internal/server"
	"xbench/internal/workload"
)

// TestUpdatesGridAllEngines is the subcommand's acceptance test: U1-U3
// measure on all four engines for a multi-document class, with non-zero
// latency and attributed I/O.
func TestUpdatesGridAllEngines(t *testing.T) {
	var buf bytes.Buffer
	r := tinyRunner(&buf)
	r.Repeat = 2
	cells, err := r.UpdatesGrid(core.DCMD)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(EngineNames) * len(workload.UpdateOps)
	if len(cells) != wantCells {
		t.Fatalf("measured %d cells, want %d: %+v", len(cells), wantCells, cells)
	}
	seen := map[string]map[string]bool{}
	for _, c := range cells {
		if c.Err != "" {
			t.Errorf("%s %s: %s", c.Engine, c.Op, c.Err)
			continue
		}
		if c.MeanMs <= 0 {
			t.Errorf("%s %s: zero mean latency", c.Engine, c.Op)
		}
		if c.PageIO == nil || *c.PageIO <= 0 {
			t.Errorf("%s %s: no attributed page I/O", c.Engine, c.Op)
		}
		// The breakdown says what the update did to storage: a replace or a
		// delete tombstones records where they lie and deletes their index
		// entries, and a replace puts the new records into the extents that
		// freed.
		if c.Op != workload.U1.String() {
			if c.Counters["pager.heap.tombstone"] == 0 {
				t.Errorf("%s %s: no pager.heap.tombstone in the breakdown %v", c.Engine, c.Op, c.Counters)
			}
			if c.Counters["btree.delete"] == 0 {
				t.Errorf("%s %s: no btree.delete in the breakdown %v", c.Engine, c.Op, c.Counters)
			}
		}
		if c.Op == workload.U2.String() && c.Counters["pager.heap.reuse"] == 0 {
			t.Errorf("%s %s: no pager.heap.reuse in the breakdown %v", c.Engine, c.Op, c.Counters)
		}
		if seen[c.Engine] == nil {
			seen[c.Engine] = map[string]bool{}
		}
		seen[c.Engine][c.Op] = true
	}
	for _, name := range EngineNames {
		for _, op := range workload.UpdateOps {
			if !seen[name][op.String()] {
				t.Errorf("no cell for %s %s", name, op)
			}
		}
	}
}

func TestUpdatesReportFormats(t *testing.T) {
	for _, format := range []string{"table", "csv", "json"} {
		var buf bytes.Buffer
		r := tinyRunner(&buf)
		// A single engine keeps the format test quick.
		r.Format, r.EngineList = format, []string{"X-Hive"}
		if err := r.UpdatesReport(core.TCMD); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		out := buf.String()
		for _, want := range []string{"U1", "U2", "U3"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s output missing %q:\n%s", format, want, out)
			}
		}
	}
}

func TestUpdatesReportRejectsSingleDocumentClass(t *testing.T) {
	var buf bytes.Buffer
	r := tinyRunner(&buf)
	if err := r.UpdatesReport(core.TCSD); err == nil {
		t.Fatal("single-document class accepted")
	}
}

// TestUpdatesGridOnAServedEngine measures U1-U3 twice against one served
// native DC/MD engine, as `bench --view=updates --remote` does against one
// `xbench serve`: the second run passes only if the first left the
// database as it found it. A served engine exposes no metrics registry,
// so its page I/O and writes read "-" and the JSON leaves them out, where
// an in-process engine's are numbers.
func TestUpdatesGridOnAServedEngine(t *testing.T) {
	var buf bytes.Buffer
	r := tinyRunner(&buf)
	db, err := r.Database(core.DCMD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine("X-Hive")
	if _, _, err := workload.LoadAndIndex(context.Background(), eng, db); err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, server.Config{})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for run, format := range []string{"table", "json"} {
		buf.Reset()
		r := tinyRunner(&buf)
		r.Format, r.EngineList = format, []string{"served"}
		r.NewEngineFn = func(string) core.Engine {
			c, err := client.Dial(srv.Addr().String(), client.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		if err := r.UpdatesReport(core.DCMD); err != nil {
			t.Fatalf("run %d: %v\n%s", run+1, err, buf.String())
		}
		out := buf.String()
		switch format {
		case "table":
			rows := 0
			for _, line := range strings.Split(out, "\n") {
				if f := strings.Fields(line); len(f) == 9 && strings.HasPrefix(f[1], "U") {
					rows++
					if f[7] != "-" || f[8] != "-" {
						t.Errorf("served row prints pageIO %s and writes %s, want - and -: %q", f[7], f[8], line)
					}
				}
			}
			if rows != len(workload.UpdateOps) {
				t.Errorf("%d rows, want %d:\n%s", rows, len(workload.UpdateOps), out)
			}
		case "json":
			if strings.Contains(out, "page_io") || strings.Contains(out, "page_writes") {
				t.Errorf("served JSON reports page I/O it did not measure:\n%s", out)
			}
		}
	}

	buf.Reset()
	r.Format, r.EngineList = "json", []string{"X-Hive"}
	if err := r.UpdatesReport(core.DCMD); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, `"page_io"`) || !strings.Contains(out, `"page_writes"`) {
		t.Errorf("in-process JSON lacks page_io or page_writes:\n%s", out)
	}
}
