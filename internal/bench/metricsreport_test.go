package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"xbench/internal/core"
)

func TestMetricsReportTable(t *testing.T) {
	var buf bytes.Buffer
	r := tinyRunner(&buf)
	r.Repeat, r.Warm = 2, 1
	err := r.MetricsReport([]core.QueryID{core.Q5})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Metrics Report", "Query Q5",
		"p50", "p95", "p99", "warm p50", "pageIO", "hit%", "btree",
		"phases:", "X-Hive", "SQL Server",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "error:") {
		t.Fatalf("report contains error cells:\n%s", out)
	}
}

func TestMetricsReportBreakdownPopulated(t *testing.T) {
	r := tinyRunner(&bytes.Buffer{})
	rep := r.BuildReport([]core.QueryID{core.Q5})
	var hive *CellReport
	for i := range rep.Cells {
		if rep.Cells[i].Engine == "X-Hive" && rep.Cells[i].Class == "dcsd" {
			hive = &rep.Cells[i]
		}
	}
	if hive == nil {
		t.Fatal("no X-Hive dcsd cell")
	}
	if hive.BtreeVisits <= 0 {
		t.Error("no btree visits attributed")
	}
	if len(hive.PhasesMs) == 0 {
		t.Error("no phase times attributed")
	}
	if hive.Counters["pager.read"] <= 0 {
		t.Error("no pager reads attributed")
	}
}

func TestMetricsReportJSON(t *testing.T) {
	var buf bytes.Buffer
	r := tinyRunner(&buf)
	r.Format = "json"
	err := r.MetricsReport([]core.QueryID{core.Q8})
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	if rep.Repeat != 1 || rep.IOCostUs != 100 || len(rep.Cells) == 0 {
		t.Fatalf("bad report meta: %+v", rep)
	}
}

func TestMetricsReportUnknownFormat(t *testing.T) {
	r := tinyRunner(&bytes.Buffer{})
	r.Format = "xml"
	if err := r.MetricsReport(nil); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestReportCSVShape is the golden shape test for the report CSV format:
// fixed header, one comma-separated row per cell with the same column
// count as the header.
func TestReportCSVShape(t *testing.T) {
	var buf bytes.Buffer
	r := tinyRunner(&buf)
	r.Warm, r.Format = 1, "csv"
	err := r.MetricsReport([]core.QueryID{core.Q5})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != reportCSVHeader {
		t.Fatalf("header = %q", lines[0])
	}
	want := len(strings.Split(reportCSVHeader, ","))
	if len(lines) < 2 {
		t.Fatal("no data rows")
	}
	for _, line := range lines[1:] {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if got := len(strings.Split(line, ",")); got != want {
			t.Errorf("row has %d columns, header %d: %q", got, want, line)
		}
	}
}

// TestBenchCSVShape is the golden shape test for the paper-table CSV
// format: header row then table,engine,class,size,value_ms rows.
func TestBenchCSVShape(t *testing.T) {
	var buf bytes.Buffer
	r := tinyRunner(&buf)
	r.Format = "csv"
	if err := r.Table(4); err != nil {
		t.Fatal(err)
	}
	if err := r.Table(5); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "table,engine,class,size,value_ms" {
		t.Fatalf("header = %q", lines[0])
	}
	if strings.Count(buf.String(), "table,engine,class,size,value_ms") != 1 {
		t.Fatal("CSV header emitted more than once")
	}
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != 5 {
			t.Fatalf("row has %d fields: %q", len(fields), line)
		}
		if fields[0] != "4" && fields[0] != "5" {
			t.Errorf("unexpected table id in %q", line)
		}
	}
}

func TestQueryCellErrorsSurface(t *testing.T) {
	var buf bytes.Buffer
	r := tinyRunner(&buf)
	r.EngineList = []string{"stub"}
	r.NewEngineFn = func(name string) core.Engine {
		return &stubEngine{name: name, execErr: errors.New("synthetic query failure")}
	}
	if err := r.Table(5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "err") {
		t.Fatalf("failing cell not marked:\n%s", out)
	}
	if !strings.Contains(out, "synthetic query failure") {
		t.Fatalf("underlying error not surfaced:\n%s", out)
	}
}
