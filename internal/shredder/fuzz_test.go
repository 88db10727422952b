package shredder

import (
	"context"
	"strings"
	"testing"

	"xbench/internal/core"
	"xbench/internal/gen"
	"xbench/internal/pager"
	"xbench/internal/relational"
	"xbench/internal/xmldom"
	"xbench/internal/xmlschema"
)

// stored counts the rows every table of db holds.
func stored(db *relational.DB) int {
	n := 0
	for _, name := range db.TableNames() {
		n += db.Table(name).Live().Count()
	}
	return n
}

// FuzzShredDocument shreds any document ParseRecord accepts, as a
// document of the class its first byte picks, under either shredding
// policy: ShredDocument either fails or stores exactly the rows Count
// predicted, and into the DAD's side tables exactly the rows it reports;
// the delete cascade removes them all — nothing panics, however deep the
// recursion.
func FuzzShredDocument(f *testing.F) {
	for _, class := range core.Classes {
		db, err := gen.Config{DictEntries: 2, Articles: 1, Items: 2, Orders: 1}.Generate(class, core.Small)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(byte(class), db.Docs[0].Data)
	}
	f.Add(byte(core.TCMD), []byte(`<article id="a"><body>`+strings.Repeat(`<sec id="s"><p>p</p>`, 3000)+
		strings.Repeat(`</sec>`, 3000)+`</body></article>`))
	f.Add(byte(core.TCSD)|4, []byte(`<dictionary><entry id="e"><etym>a<cr target="x">b</cr>c</etym>`+
		`<sense><qp><q><qt>q<i>i</i>t</qt></q></qp></sense><sense/></entry></dictionary>`))
	f.Fuzz(func(t *testing.T, pick byte, data []byte) {
		rec := new(xmldom.Record)
		if xmldom.ParseRecord(rec, data) != nil {
			return
		}
		class := core.Classes[int(pick)%len(core.Classes)]
		s := NewStore(class, xmlschema.Shredded, relational.NewDB(pager.New(16)), Options{DropMixed: pick&4 != 0})
		want, cerr := s.Count(rec)
		rows, err := s.ShredDocument("fuzz.xml", rec)
		if err == nil && (cerr != nil || rows != want || stored(s.DB) != want) {
			t.Fatalf("%s: shredded %d rows, stored %d, Count = %d, %v", class, rows, stored(s.DB), want, cerr)
		}
		if id, ok := UnitDocID(class, rec); ok && err == nil {
			if n, err := s.DeleteDocumentRows(context.Background(), id); err != nil || stored(s.DB) != 0 || n != rows {
				t.Fatalf("%s: deleting %s removed %d of %d rows: %v", class, id, n, rows, err)
			}
		}
		side := NewStore(class, xmlschema.DAD, relational.NewDB(pager.New(16)), Options{})
		if rows, err := side.ShredDocument("1", rec); err == nil && rows != stored(side.DB) {
			t.Fatalf("%s: %d side rows reported, %d stored", class, rows, stored(side.DB))
		}
	})
}
