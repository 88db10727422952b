package workload

import (
	"testing"

	"xbench/internal/core"
	"xbench/internal/gen"
	"xbench/internal/xmldom"
)

// TestDocOfNamesEveryIDsDocument holds the databases to what a routed
// read relies on (plan.OneDocument, the router): every element whose @id
// core.DocOf maps is the root element DocOf names, in the document DocOf
// names — in every generated DC/MD and TC/MD document at Small and Normal
// under two seeds, and in the update workload's documents.
func TestDocOfNamesEveryIDsDocument(t *testing.T) {
	var rec xmldom.Record
	check := func(doc core.Doc) int {
		if err := xmldom.ParseRecord(&rec, doc.Data); err != nil {
			t.Fatalf("%s: %v", doc.Name, err)
		}
		mapped := 0
		for ord := 0; ord < rec.Len(); ord++ {
			el := rec.At(int32(ord))
			if el.Kind() != xmldom.ElementKind {
				continue
			}
			id, ok := el.Attr("id")
			if !ok {
				continue
			}
			root, name, ok := core.DocOf(string(id))
			if !ok {
				continue
			}
			mapped++
			if string(el.Name()) != root || name != doc.Name || el.Ord() != rec.Element().Ord() {
				t.Errorf("<%s id=%q> is an element of %s; DocOf names the root <%s> of %s", el.Name(), id, doc.Name, root, name)
			}
		}
		return mapped
	}
	for _, seed := range []uint64{7, 1} {
		for _, size := range []core.Size{core.Small, core.Normal} {
			for _, class := range []core.Class{core.DCMD, core.TCMD} {
				db, err := gen.Config{Seed: seed}.Generate(class, size)
				if err != nil {
					t.Fatal(err)
				}
				mapped := 0
				for _, doc := range db.Docs {
					mapped += check(doc)
				}
				// Every order and article document has its one mapped
				// id; DC/MD's five flat documents have none.
				if want := len(db.Docs); class == core.DCMD && mapped != want-5 || class == core.TCMD && mapped != want {
					t.Errorf("seed %d %s %s: %d mapped ids in %d documents", seed, size, class, mapped, want)
				}
			}
		}
	}
	for _, class := range []core.Class{core.DCMD, core.TCMD} {
		for seq := 0; seq < 3; seq++ {
			for rev := 0; rev < 2; rev++ {
				name, data := UpdateDoc(class, seq, rev)
				if check(core.Doc{Name: name, Data: data}) != 1 {
					t.Errorf("%s: no id DocOf maps", name)
				}
			}
		}
	}
}
