package xmlschema_test

import (
	"strings"
	"testing"

	"xbench/internal/core"
	"xbench/internal/pager"
	"xbench/internal/relational"
	"xbench/internal/shredder"
	"xbench/internal/xmldom"
	"xbench/internal/xmlschema"
)

// mapped collects the mapping annotations under n: each sql: or dad:
// relation, and each field as table.column of the nearest enclosing
// declaration that names a relation under the field's prefix.
func mapped(n *xmldom.Node, scope map[string]string, got map[string]int) {
	if n.Kind != xmldom.ElementKind {
		return
	}
	inner := map[string]string{}
	for _, p := range []string{"sql", "dad"} {
		inner[p] = scope[p]
		if t, ok := n.Attr(p + ":relation"); ok {
			inner[p] = t
			got[t]++
		}
		if c, ok := n.Attr(p + ":field"); ok {
			got[inner[p]+"."+c]++
		}
		if c, ok := n.Attr("name"); ok && n.Name == p+":field" {
			got[inner[p]+"."+c]++
		}
	}
	for _, c := range n.Children {
		mapped(c, inner, got)
	}
}

// TestXSDWellFormedAndComplete parses every class's XSD and holds its
// annotations to the tables the engines create: every shredded and side
// table, and every column Columns reports of it, appears exactly once,
// and nothing else does.
func TestXSDWellFormedAndComplete(t *testing.T) {
	for _, c := range core.Classes {
		xsd := xmlschema.For(c).XSD()
		// The XSD itself must be well-formed XML (our own parser checks it).
		doc, err := xmldom.Parse([]byte(xsd))
		if err != nil {
			t.Fatalf("%s XSD not well-formed: %v\n%s", c, err, xsd)
		}
		// Every element type must be declared.
		for _, name := range xmlschema.For(c).ElementNames() {
			if !strings.Contains(xsd, `name="`+name+`"`) {
				t.Errorf("%s XSD missing element %q", c, name)
			}
		}
		if !strings.Contains(xsd, `xmlns:sql="urn:schemas-microsoft-com:mapping-schema"`) {
			t.Errorf("%s XSD does not declare SQLXML's annotation namespace", c)
		}
		db := relational.NewDB(pager.New(8))
		shredder.NewStore(c, xmlschema.Shredded, db, shredder.Options{})
		shredder.NewStore(c, xmlschema.DAD, db, shredder.Options{})
		got := map[string]int{}
		mapped(doc.Root(), map[string]string{}, got)
		want := 0
		for _, table := range db.TableNames() {
			cols := shredder.Columns(table)
			want += 1 + len(cols)
			if got[table] != 1 {
				t.Errorf("%s XSD names table %s %d times", c, table, got[table])
			}
			for _, col := range cols {
				if got[table+"."+col] != 1 {
					t.Errorf("%s XSD maps column %s.%s %d times", c, table, col, got[table+"."+col])
				}
			}
		}
		if len(got) != want {
			t.Errorf("%s XSD annotates %d tables and columns, the engines create %d: %v", c, len(got), want, got)
		}
	}
}
