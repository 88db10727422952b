package xquery

import (
	"context"
	enc "encoding/binary"
	"errors"
	"reflect"
	"testing"
	"time"

	"xbench/internal/core"
	"xbench/internal/gen"
	"xbench/internal/queries"
	"xbench/internal/xmldom"
)

// twiceNamed is a record whose name dictionary lists "a" twice, with an
// element under each entry: <a><a id="x">t</a></a>. No parser writes
// one; OpenRecord accepts it, so a name test must match either entry.
func twiceNamed(t testing.TB) *xmldom.Record {
	b := []byte("XDM1")
	put := func(s string) { b = append(enc.AppendUvarint(b, uint64(len(s))), s...) }
	b = enc.AppendUvarint(b, 2)
	put("a")
	put("a")
	b = append(b, byte(xmldom.DocumentKind), 1)
	b = append(b, byte(xmldom.ElementKind), 0, 0, 1) // <a>: entry 0, no attributes, one child
	b = append(b, byte(xmldom.ElementKind), 1, 1)    // <a id="x">: entry 1
	put("id")
	put("x")
	b = append(b, 1, byte(xmldom.TextKind))
	put("t")
	rec, err := xmldom.OpenRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// evalColl is testColl's documents written by ParseRecord, and
// twiceNamed's record under the name "twice.xml".
func evalColl(t testing.TB) *Collection {
	c := NewCollection()
	for i, doc := range testColl().docs {
		rec := new(xmldom.Record)
		if err := xmldom.ParseRecord(rec, []byte(doc.Root().XML())); err != nil {
			t.Fatal(err)
		}
		c.Add([]string{"catalog.xml", "article1.xml"}[i], rec)
	}
	c.Add("twice.xml", twiceNamed(t))
	return c
}

func TestNameTestsMatchEveryDictionaryEntry(t *testing.T) {
	c := evalColl(t)
	for src, want := range map[string][]string{
		`count(//a)`:                 {"2"},
		`//a/a/@id`:                  {"x"},
		`count(doc("twice.xml")//*)`: {"2"},
		`string(//a[@id = "x"])`:     {"t"},
		`//a[a]/a`:                   {`<a id="x">t</a>`},
	} {
		if got := strs(evalIn(t, c, src)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

// TestScanAllocatesNothingPerDocument: DC/MD Q3 allocates as much over a
// quarter of the Small documents as over all of them — no boxed node, no
// scratch sequence and no ParseFloat error for each date it compares.
func TestScanAllocatesNothingPerDocument(t *testing.T) {
	db, err := gen.Config{Seed: 7}.Generate(core.DCMD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse(queries.Lookup(core.DCMD, core.Q3).XQuery)
	if err != nil {
		t.Fatal(err)
	}
	vars := map[string]string{"LO": "1997-01-01", "HI": "2001-12-30"}
	allocs := func(n int) float64 {
		c := NewCollection()
		for _, d := range db.Docs[:n] {
			rec := new(xmldom.Record)
			if err := xmldom.ParseRecord(rec, d.Data); err != nil {
				t.Fatal(err)
			}
			c.Add("", rec)
		}
		eval := func() {
			if s, err := q.Eval(context.Background(), c, vars); err != nil || len(s) != 1 {
				t.Fatalf("Q3 = %v, %v", s, err)
			}
		}
		eval() // the run's scratch grows to the collection once
		return testing.AllocsPerRun(20, eval)
	}
	few, all := allocs(len(db.Docs)/4), allocs(len(db.Docs))
	if few != all || all > 1 {
		t.Errorf("Q3 allocates %.0f objects over %d documents, %.0f over %d; want the one its answer takes",
			few, len(db.Docs)/4, all, len(db.Docs))
	}
}

// FuzzEval: whatever Parse accepts — FuzzParse's seeds among it — runs
// over evalColl to a result or an *Error at an offset inside the query,
// and never panics (make fuzz). A deadline ends the inputs whose loops
// multiply out; the loops' ctx checks make it stop them.
func FuzzEval(f *testing.F) {
	for _, class := range core.Classes {
		for _, d := range queries.ForClass(class) {
			f.Add(d.XQuery)
		}
	}
	for _, in := range surfaceInputs {
		f.Add(in.query)
	}
	coll := evalColl(f)
	vars := map[string]string{"X": "I1", "W": "Ada", "Y": "Eve", "LO": "10", "HI": "50", "DOC": "twice.xml"}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_, err = q.Eval(ctx, coll, vars)
		var e *Error
		if err != nil && !errors.Is(err, context.DeadlineExceeded) && (!errors.As(err, &e) || e.Pos < 0 || e.Pos > len(src)) {
			t.Fatalf("Eval(%q) = %v, want a result or an *Error at an offset in [0, %d]", src, err, len(src))
		}
	})
}
