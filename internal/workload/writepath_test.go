package workload

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"xbench/internal/core"
	"xbench/internal/gen"
)

// TestLoadStatsPinned: what a load reports — documents, input bytes,
// nodes stored natively, rows written relationally, mixed content
// dropped — on every engine and class at Small, generator seed 7,
// against the values each engine reported when it parsed every document
// into a tree first. A load that now parses into records must count the
// same documents the same way.
func TestLoadStatsPinned(t *testing.T) {
	ctx := context.Background()
	pins := map[string]string{
		"X-Hive/DC/SD":      "documents 1 bytes 316884 nodes 14998 rows 0 mixed 0",
		"Xcolumn/DC/SD":     "unsupported",
		"Xcollection/DC/SD": "documents 1 bytes 316884 nodes 0 rows 659 mixed 0",
		"SQL Server/DC/SD":  "documents 1 bytes 316884 nodes 0 rows 659 mixed 0",
		"X-Hive/DC/MD":      "documents 325 bytes 366794 nodes 23663 rows 0 mixed 0",
		"Xcolumn/DC/MD":     "documents 325 bytes 366794 nodes 0 rows 1377 mixed 0",
		"Xcollection/DC/MD": "documents 325 bytes 366794 nodes 0 rows 1668 mixed 0",
		"SQL Server/DC/MD":  "documents 325 bytes 366794 nodes 0 rows 1668 mixed 0",
		"X-Hive/TC/SD":      "documents 1 bytes 619507 nodes 41669 rows 0 mixed 0",
		"Xcolumn/TC/SD":     "unsupported",
		"Xcollection/TC/SD": "documents 1 bytes 619507 nodes 0 rows 4625 mixed 0",
		"SQL Server/TC/SD":  "documents 1 bytes 619507 nodes 0 rows 4625 mixed 2437",
		"X-Hive/TC/MD":      "documents 30 bytes 223247 nodes 3911 rows 0 mixed 0",
		"Xcolumn/TC/MD":     "documents 30 bytes 223247 nodes 0 rows 247 mixed 0",
		"Xcollection/TC/MD": "documents 30 bytes 223247 nodes 0 rows 1530 mixed 0",
		"SQL Server/TC/MD":  "documents 30 bytes 223247 nodes 0 rows 1530 mixed 0",
	}
	for _, class := range core.Classes {
		db, err := gen.Config{Seed: 7}.Generate(class, core.Small)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range allEngines() {
			key := e.Name() + "/" + class.String()
			got := "unsupported"
			if e.Supports(class, core.Small) == nil {
				st, err := e.Load(ctx, db)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got = fmt.Sprintf("documents %d bytes %d nodes %d rows %d mixed %d",
					st.Documents, st.Bytes, st.Nodes, st.Rows, st.SkippedMixed)
			}
			if got != pins[key] {
				t.Errorf("%s: %s, want %s", key, got, pins[key])
			}
			e.Close()
		}
	}
}

// TestMalformedUpdateLeavesNoTrace: a U1 or U2 of a document that does
// not parse fails before the update's mutation opens, with the parser's
// error under the engine's and the update's names, on every engine; every
// query of the class then answers what it answered before, the engine
// did no page I/O, and the refused name is still free for a U1.
func TestMalformedUpdateLeavesNoTrace(t *testing.T) {
	ctx := context.Background()
	bad := []byte(`<order id="OX"><total>1</order>`)
	const syntax = "xmldom: syntax error at offset 30: mismatched end tag </order> for <total>"
	db := tinyDB(t, core.DCMD)
	replaced := db.Docs[len(db.Docs)-1].Name
	for _, d := range db.Docs {
		if strings.HasPrefix(d.Name, "order") {
			replaced = d.Name
			break
		}
	}
	for _, e := range allEngines() {
		if _, _, err := LoadAndIndex(ctx, e, db); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		answers := func() [][]string {
			var out [][]string
			for _, q := range QueryIDs(core.DCMD) {
				res, err := e.Execute(ctx, q, Params(core.DCMD))
				if err != nil && !core.IsNotAnswered(err) {
					t.Fatalf("%s %s: %v", e.Name(), q, err)
				}
				out = append(out, res.Items)
			}
			return out
		}
		before, io := answers(), e.PageIO()
		u1 := e.InsertDocument(ctx, "orderX.xml", bad)
		u2 := e.ReplaceDocument(ctx, replaced, bad)
		got := fmt.Sprintf("%v | %v", u1, u2)
		want := fmt.Sprintf("%[1]s: insert orderX.xml: %[3]s | %[1]s: replace %[2]s: %[3]s", e.Name(), replaced, syntax)
		if got != want {
			t.Errorf("%s: %s, want %s", e.Name(), got, want)
		}
		if moved := e.PageIO() - io; moved != 0 {
			t.Errorf("%s: the refused updates did %d page I/Os", e.Name(), moved)
		}
		if after := answers(); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: answers moved after the refused updates", e.Name())
		}
		if err := e.InsertDocument(ctx, "orderX.xml", []byte(`<order id="OX"><cc_xacts/></order>`)); err != nil {
			t.Errorf("%s: U1 of the refused name: %v", e.Name(), err)
		}
		e.Close()
	}
}
