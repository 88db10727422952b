package bench

import (
	"bytes"
	"strings"
	"testing"

	"xbench/internal/core"
	"xbench/internal/gen"
)

func tinyRunner(buf *bytes.Buffer) *Runner {
	cfg := gen.Config{DictEntries: 40, Articles: 6, Items: 25, Orders: 40}
	return NewRunner(cfg, []core.Size{core.Small}, buf)
}

func TestStaticTables(t *testing.T) {
	var buf bytes.Buffer
	PrintTable1(&buf)
	PrintTable2(&buf)
	PrintTable3(&buf)
	out := buf.String()
	for _, want := range []string{
		"Online dictionaries", "Transactional data", // Table 1
		"GCIDE", "Reuters", "807000", // Table 2
		"hw", "article/@id", "item/@id, date_of_release", "order/@id", // Table 3
	} {
		if !strings.Contains(out, want) {
			t.Errorf("static tables missing %q", want)
		}
	}
}

func TestTable4Layout(t *testing.T) {
	var buf bytes.Buffer
	r := tinyRunner(&buf)
	if err := r.Table(4); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range EngineNames {
		if !strings.Contains(out, name) {
			t.Errorf("Table 4 missing engine row %q", name)
		}
	}
	// Xcolumn cannot host SD classes: its row must contain blank cells.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "Xcolumn") && !strings.Contains(line, "-") {
			t.Errorf("Xcolumn row has no blank cells: %q", line)
		}
	}
}

func TestQueryTablesRun(t *testing.T) {
	var buf bytes.Buffer
	r := tinyRunner(&buf)
	for tn := 5; tn <= 9; tn++ {
		if err := r.Table(tn); err != nil {
			t.Fatalf("table %d: %v", tn, err)
		}
	}
	out := buf.String()
	if strings.Contains(out, "err") {
		t.Fatalf("query table contains error cells:\n%s", out)
	}
	for _, want := range []string{"Q5", "Q12", "Q17", "Q8", "Q14"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing table for %s", want)
		}
	}
}

func TestQueryTableUnknown(t *testing.T) {
	r := tinyRunner(&bytes.Buffer{})
	if err := r.Table(99); err == nil {
		t.Fatal("unknown table number accepted")
	}
}

func TestEngineCaching(t *testing.T) {
	r := tinyRunner(&bytes.Buffer{})
	c1 := r.engine("X-Hive", core.DCMD, core.Small, true)
	c2 := r.engine("X-Hive", core.DCMD, core.Small, true)
	if c1.e != c2.e {
		t.Fatal("engine not cached")
	}
	if c1.dur != c2.dur {
		t.Fatal("load measurement not cached")
	}
	if c1.err != nil {
		t.Fatal(c1.err)
	}
}

func TestUnsupportedCellsPropagate(t *testing.T) {
	r := tinyRunner(&bytes.Buffer{})
	lc := r.engine("Xcolumn", core.TCSD, core.Small, true)
	if lc.e != nil || lc.err == nil {
		t.Fatal("Xcolumn TC/SD should be unsupported")
	}
	var shown *CellReport
	if c, ok := r.cell("Xcolumn", core.TCSD, core.Small, core.Q5, true); ok {
		shown = &c
	}
	if got := cellText(shown); got != "-" {
		t.Fatalf("unsupported cell = %q", got)
	}
}

func TestMeasure(t *testing.T) {
	r := tinyRunner(&bytes.Buffer{})
	m, err := r.Measure("SQL Server", core.DCSD, core.Small, core.Q8)
	if err != nil {
		t.Fatal(err)
	}
	if m.Runs != 1 || m.PageIO <= 0 {
		t.Fatalf("Q8 cold run read nothing: %+v", m)
	}
	if m.ColdMeanMs <= 0 {
		t.Fatal("no elapsed time measured")
	}
}

func TestNewEnginePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown engine")
		}
	}()
	NewEngine("Oracle")
}

func TestIndexAblation(t *testing.T) {
	var buf bytes.Buffer
	r := tinyRunner(&buf)
	if err := r.IndexAblation(core.Q5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Index ablation") || !strings.Contains(out, "X-Hive") {
		t.Fatalf("ablation output wrong:\n%s", out)
	}
	if strings.Contains(out, "err") {
		t.Fatalf("ablation contains error cells:\n%s", out)
	}
}

func TestPaperValuesTranscription(t *testing.T) {
	// Spot-check cells against the paper's printed tables.
	spots := []struct {
		cell PaperCell
		want float64
	}{
		{PaperCell{4, "X-Hive", core.DCMD, core.Large}, 8568},
		{PaperCell{4, "SQL Server", core.DCSD, core.Small}, 43},
		{PaperCell{5, "X-Hive", core.DCMD, core.Large}, 213347},
		{PaperCell{5, "Xcolumn", core.TCSD, core.Small}, Blank},
		{PaperCell{6, "Xcollection", core.TCMD, core.Large}, 3101},
		{PaperCell{7, "X-Hive", core.TCMD, core.Small}, 20},
		{PaperCell{8, "X-Hive", core.TCSD, core.Large}, 48459},
		{PaperCell{9, "Xcollection", core.DCSD, core.Small}, 30},
	}
	for _, s := range spots {
		got, ok := PaperValue(s.cell)
		if !ok || got != s.want {
			t.Errorf("PaperValue(%+v) = %v, %v; want %v", s.cell, got, ok, s.want)
		}
	}
	if _, ok := PaperValue(PaperCell{3, "X-Hive", core.DCSD, core.Small}); ok {
		t.Error("PaperValue accepted a non-measured table")
	}
	if !PaperBlank(4, "Xcolumn", core.DCSD, core.Small) {
		t.Error("Xcolumn DC/SD should be blank")
	}
	if PaperBlank(4, "X-Hive", core.DCSD, core.Small) {
		t.Error("X-Hive DC/SD should not be blank")
	}
}

func TestPaperBlanksMatchEngineSupport(t *testing.T) {
	// Every blank cell of the paper must be an unsupported combination of
	// our engine, and vice versa.
	for table := 4; table <= 9; table++ {
		for _, engine := range EngineNames {
			for _, class := range core.Classes {
				for _, size := range core.Sizes {
					blank := PaperBlank(table, engine, class, size)
					unsupported := NewEngine(engine).Supports(class, size) != nil
					if blank != unsupported {
						t.Errorf("table %d %s %s %s: paper blank=%v, engine unsupported=%v",
							table, engine, class, size, blank, unsupported)
					}
				}
			}
		}
	}
}

func TestShapeReportRuns(t *testing.T) {
	var buf bytes.Buffer
	cfg := gen.Config{DictEntries: 40, Articles: 6, Items: 25, Orders: 40}
	r := NewRunner(cfg, []core.Size{core.Small, core.Normal}, &buf)
	if err := r.ShapeReport(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "shape checks:") || !strings.Contains(out, "Table 7 shape checks") {
		t.Fatalf("report incomplete:\n%.400s", out)
	}
	// Single-size runners are rejected.
	r2 := NewRunner(cfg, []core.Size{core.Small}, &buf)
	if err := r2.ShapeReport(); err == nil {
		t.Fatal("single-size shape report accepted")
	}
}
