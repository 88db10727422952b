package xbench

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"xbench/internal/bench"
	"xbench/internal/client"
	"xbench/internal/core"
	"xbench/internal/driver"
	"xbench/internal/gen"
	"xbench/internal/server"
	"xbench/internal/workload"
	"xbench/internal/xmlschema"
)

// The facade tests drive the library as the README's quick start does.
// The rest reach what the facade does not re-export through its
// internal package, as the CLI does.

func TestPublicAPIFlow(t *testing.T) {
	db, err := Generate(DCSD, Small)
	if err != nil {
		t.Fatal(err)
	}
	if db.Instance() != "DCSDS" || db.Bytes() == 0 {
		t.Fatalf("bad database: %s %d", db.Instance(), db.Bytes())
	}
	e := mustNew(t, "native")
	st, err := LoadAndIndex(context.Background(), e, db)
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes == 0 {
		t.Fatal("no nodes loaded")
	}
	m := RunCold(context.Background(), e, DCSD, Q1)
	if m.Err != nil || m.Result.Count() != 1 {
		t.Fatalf("Q1: %v %v", m.Result.Items, m.Err)
	}
	if m.Elapsed <= 0 {
		t.Fatal("no time measured")
	}
}

func TestPublicEngineConstructors(t *testing.T) {
	if len(bench.EngineNames) != 4 {
		t.Fatalf("EngineNames = %v", bench.EngineNames)
	}
	names := map[string]bool{}
	for _, n := range bench.EngineNames {
		names[bench.NewEngine(n).Name()] = true
	}
	for _, want := range []string{"Xcolumn", "Xcollection", "SQL Server", "X-Hive"} {
		if !names[want] {
			t.Errorf("missing engine %s", want)
		}
	}
	if mustNew(t, "xcolumn").Name() != "Xcolumn" ||
		mustNew(t, "xcollection").Name() != "Xcollection" ||
		mustNew(t, "sqlserver").Name() != "SQL Server" {
		t.Fatal("constructor names wrong")
	}
}

func TestPublicEvalXQuery(t *testing.T) {
	docs := []Doc{{Name: "d.xml", Data: []byte(`<r><v>1</v><v>2</v></r>`)}}
	items, err := EvalXQuery(`sum(//v)`, docs, nil)
	if err != nil || len(items) != 1 || items[0] != "3" {
		t.Fatalf("EvalXQuery = %v, %v", items, err)
	}
	items, err = EvalXQuery(`//v[. = $X]`, docs, Params{"X": "2"})
	if err != nil || len(items) != 1 {
		t.Fatalf("EvalXQuery with vars = %v, %v", items, err)
	}
	if _, err := EvalXQuery(`((`, docs, nil); err == nil {
		t.Fatal("bad query accepted")
	}
	if _, err := EvalXQuery(`//x`, []Doc{{Name: "bad", Data: []byte("<a>")}}, nil); err == nil {
		t.Fatal("bad document accepted")
	}
}

func TestPublicSchemaEmitters(t *testing.T) {
	for _, class := range core.Classes {
		if !strings.Contains(xmlschema.For(class).Diagram(), class.String()) {
			t.Errorf("diagram for %s missing class label", class)
		}
		if !strings.Contains(xmlschema.For(class).DTD(), "<!ELEMENT") {
			t.Errorf("DTD for %s empty", class)
		}
	}
}

func TestPublicWorkloadHelpers(t *testing.T) {
	if len(workload.QueryIDs(DCMD)) < 12 {
		t.Fatal("workload too small")
	}
	if len(workload.Indexes(DCSD)) != 2 {
		t.Fatal("DC/SD should have 2 indexes")
	}
	if workload.Params(DCMD).Get("X") != "O1" {
		t.Fatal("params wrong")
	}
}

func TestPublicBenchRunner(t *testing.T) {
	var buf bytes.Buffer
	r := bench.NewRunner(gen.Config{DictEntries: 30, Articles: 5, Items: 20, Orders: 30},
		[]Size{Small}, &buf)
	if err := r.Table(4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "X-Hive") {
		t.Fatal("runner produced no table")
	}
}

func TestPublicErrors(t *testing.T) {
	e := mustNew(t, "xcolumn")
	if err := e.Supports(TCSD, Small); !errors.Is(err, core.ErrUnsupported) {
		t.Fatal("ErrUnsupported not surfaced through the facade")
	}
	db, _ := Generate(DCSD, Small)
	n := mustNew(t, "native")
	if _, err := LoadAndIndex(context.Background(), n, db); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Execute(context.Background(), Q19, nil); !errors.Is(err, core.ErrNoQuery) {
		t.Fatal("ErrNoQuery not surfaced")
	}
}

func TestPublicSchemaXSD(t *testing.T) {
	for _, class := range core.Classes {
		if !strings.Contains(xmlschema.For(class).XSD(), "xs:schema") {
			t.Errorf("XSD for %s empty", class)
		}
	}
}

// TestPublicServeConnect drives the network layer the way `xbench serve`
// and `--remote` do: serve an engine New built, dial it, run the driver
// remote.
func TestPublicServeConnect(t *testing.T) {
	db, err := Generate(DCMD, Small)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New("native")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(e, server.Config{})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := client.Dial(srv.Addr().String(), client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Name() != e.Name() {
		t.Fatalf("remote name %q, want %q", cl.Name(), e.Name())
	}
	if _, err := LoadAndIndex(context.Background(), cl, db); err != nil {
		t.Fatal(err)
	}
	rep, err := driver.Run(context.Background(), cl, DCMD, driver.Config{
		Clients: 2, OpsPerClient: 5, Think: -1, NoWarmup: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 10 || rep.Errs != 0 {
		t.Fatalf("remote driver run: ops=%d errs=%d", rep.Ops, rep.Errs)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("graceful close: %v", err)
	}
}
