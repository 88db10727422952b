package native

import (
	"bytes"
	"context"
	"testing"

	"xbench/internal/core"
	"xbench/internal/gen"
	"xbench/internal/xmldom"
)

// TestStoredRecordsAreTheTreesEncoding: the record the engine stores for
// a document — parsed by a load or by a U2 — is byte for byte the record
// ParseRecord writes of it on its own, for every document of every class
// at Small. TestParsedTreesPinned holds those bytes to the persistent DOM
// the engine wrote when it parsed into trees first.
func TestStoredRecordsAreTheTreesEncoding(t *testing.T) {
	ctx := context.Background()
	for _, class := range core.Classes {
		db, err := gen.Config{Seed: 7}.Generate(class, core.Small)
		if err != nil {
			t.Fatal(err)
		}
		e := New(0)
		if _, err := e.Load(ctx, db); err != nil {
			t.Fatal(err)
		}
		// A U2 rewrites the last document through the update path.
		last := db.Docs[len(db.Docs)-1]
		if err := e.ReplaceDocument(ctx, last.Name, last.Data); err != nil {
			t.Fatal(err)
		}
		for _, d := range db.Docs {
			cat, err := e.s.catalog.Get(ctx, e.s.names[d.Name])
			if err != nil {
				t.Fatal(err)
			}
			en, err := decodeCatalogEntry(cat)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.s.docs.Get(ctx, en.rid)
			if err != nil {
				t.Fatal(err)
			}
			if want := mustRecord(t, d.Data).Bytes(); !bytes.Equal(got, want) {
				t.Errorf("%v %s: stored %d bytes, ParseRecord wrote %d", class, d.Name, len(got), len(want))
			}
		}
		e.Close()
	}
}

// mustRecord parses data into a record of its own.
func mustRecord(t *testing.T, data []byte) *xmldom.Record {
	t.Helper()
	rec := new(xmldom.Record)
	if err := xmldom.ParseRecord(rec, data); err != nil {
		t.Fatal(err)
	}
	return rec
}
