package xbench

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

// The facade tests drive the library exactly as the README shows.

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
	engines := Engines()
	if len(engines) != 4 {
		t.Fatalf("Engines() = %d", len(engines))
	}
	names := map[string]bool{}
	for _, e := range engines {
		names[e.Name()] = true
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

func TestPublicParseHelpers(t *testing.T) {
	if c, err := ParseClass("dcmd"); err != nil || c != DCMD {
		t.Fatal("ParseClass")
	}
	if s, err := ParseSize("large"); err != nil || s != Large {
		t.Fatal("ParseSize")
	}
	if _, err := ParseClass("zz"); err == nil {
		t.Fatal("ParseClass accepted garbage")
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
	for _, class := range Classes {
		if !strings.Contains(SchemaDiagram(class), class.String()) {
			t.Errorf("diagram for %s missing class label", class)
		}
		if !strings.Contains(SchemaDTD(class), "<!ELEMENT") {
			t.Errorf("DTD for %s empty", class)
		}
	}
}

func TestPublicWorkloadHelpers(t *testing.T) {
	if len(WorkloadQueries(DCMD)) < 12 {
		t.Fatal("workload too small")
	}
	if len(Indexes(DCSD)) != 2 {
		t.Fatal("DC/SD should have 2 indexes")
	}
	if QueryParams(DCMD).Get("X") != "O1" {
		t.Fatal("params wrong")
	}
}

func TestPublicBenchRunner(t *testing.T) {
	var buf bytes.Buffer
	r := NewBenchRunner(GenConfig{DictEntries: 30, Articles: 5, Items: 20, Orders: 30},
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
	if err := e.Supports(TCSD, Small); !errors.Is(err, ErrUnsupported) {
		t.Fatal("ErrUnsupported not surfaced through the facade")
	}
	db, _ := Generate(DCSD, Small)
	n := mustNew(t, "native")
	if _, err := LoadAndIndex(context.Background(), n, db); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Execute(context.Background(), Q19, nil); !errors.Is(err, ErrNoQuery) {
		t.Fatal("ErrNoQuery not surfaced")
	}
}

func TestPublicSchemaXSD(t *testing.T) {
	for _, class := range Classes {
		if !strings.Contains(SchemaXSD(class), "xs:schema") {
			t.Errorf("XSD for %s empty", class)
		}
	}
}

// TestPublicServeConnect drives the network layer through the facade the
// way the README shows: serve an engine, Connect, run the driver remote.
func TestPublicServeConnect(t *testing.T) {
	db, err := Generate(DCMD, Small)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New("native")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(e, ServerConfig{})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Connect(srv.Addr().String(), ClientConfig{})
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
	rep, err := Throughput(context.Background(), cl, DCMD, ThroughputConfig{
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
