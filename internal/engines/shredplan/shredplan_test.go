package shredplan

import (
	"context"
	"errors"
	"strings"
	"testing"

	"xbench/internal/core"
	"xbench/internal/gen"
	"xbench/internal/pager"
	"xbench/internal/plan"
	"xbench/internal/queries"
	"xbench/internal/relational"
	"xbench/internal/shredder"
	"xbench/internal/xmldom"
	"xbench/internal/xmlschema"
)

// frozen is the source of s a query would read now. No test here mutates
// a store beside a reader, so the committed epoch needs no pin.
func frozen(t *testing.T, s *shredder.Store) Source {
	t.Helper()
	db, err := s.DB.View(s.DB.Pager.SnapshotEpoch())
	if err != nil {
		t.Fatal(err)
	}
	return Source{Class: s.Class, DB: db, DropMixed: s.Opts.DropMixed}
}

// loadStore shreds a tiny generated database into a fresh store and
// returns its source.
func loadStore(t *testing.T, class core.Class, opts shredder.Options) Source {
	t.Helper()
	cfg := gen.Config{DictEntries: 30, Articles: 6, Items: 20, Orders: 30}
	db, err := cfg.Generate(class, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	s := shredder.NewStore(class, xmlschema.Shredded, relational.NewDB(pager.New(256)), opts)
	for _, d := range db.Docs {
		doc := new(xmldom.Record)
		if err := xmldom.ParseRecord(doc, d.Data); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ShredDocument(d.Name, doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	return frozen(t, s)
}

// physical plans q over s the way engbase.Base does for the engines.
func physical(s Source, q core.QueryID) (*plan.Physical, error) {
	return plan.Plan(queries.Lookup(s.Class, q), StoreStats(s))
}

// execute plans and runs q.
func execute(ctx context.Context, s Source, q core.QueryID, p core.Params) (core.Result, error) {
	ph, err := physical(s, q)
	if err != nil {
		return core.Result{}, err
	}
	return Exec(ctx, s, ph, p)
}

func TestUndefinedQueries(t *testing.T) {
	s := loadStore(t, core.DCSD, shredder.Options{})
	// Q4 is not defined for DC/SD at all.
	if _, err := execute(context.Background(), s, core.Q4, nil); !errors.Is(err, core.ErrNoQuery) {
		t.Fatalf("Q4 DCSD: %v", err)
	}
	// Q16 is defined for DC/MD only among the shredded plans.
	if _, err := execute(context.Background(), s, core.Q16, nil); !errors.Is(err, core.ErrNoQuery) {
		t.Fatalf("Q16 DCSD: %v", err)
	}
}

func TestQ5MissingKeyReturnsEmpty(t *testing.T) {
	s := loadStore(t, core.DCMD, shredder.Options{})
	res, err := execute(context.Background(), s, core.Q5, core.Params{"X": "O999999"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 0 {
		t.Fatalf("missing order returned items: %v", res.Items)
	}
}

func TestQ1ReconstructsWholeEntry(t *testing.T) {
	s := loadStore(t, core.TCSD, shredder.Options{})
	// Find any headword directly from the table.
	et := s.DB.Table("entry_tab")
	var hw string
	et.Scan(context.Background(), func(r relational.Rec) bool {
		hw = string(r.Col(et.Col("hw")))
		return false
	})
	res, err := execute(context.Background(), s, core.Q1, core.Params{"W": hw})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 {
		t.Fatalf("Q1 = %d items", len(res.Items))
	}
	frag := res.Items[0]
	for _, want := range []string{"<entry", "<hw>" + hw + "</hw>", "<sense>", "<def>"} {
		if !strings.Contains(frag, want) {
			t.Errorf("reconstructed entry missing %s:\n%.200s", want, frag)
		}
	}
	// The reconstruction must itself be well-formed XML.
	if err := xmldom.ParseRecord(new(xmldom.Record), []byte(frag)); err != nil {
		t.Fatalf("reconstruction not well-formed: %v", err)
	}
}

func TestResultFlags(t *testing.T) {
	drop := loadStore(t, core.TCSD, shredder.Options{DropMixed: true})
	res, err := execute(context.Background(), drop, core.Q8, core.Params{"W": firstHeadword(t, drop)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.MixedContentLost {
		t.Fatal("DropMixed store did not flag mixed loss on Q8")
	}
	keep := loadStore(t, core.TCSD, shredder.Options{})
	res, err = execute(context.Background(), keep, core.Q8, core.Params{"W": firstHeadword(t, keep)})
	if err != nil {
		t.Fatal(err)
	}
	if res.MixedContentLost {
		t.Fatal("flattening store flagged mixed loss")
	}
	res, err = execute(context.Background(), keep, core.Q5, core.Params{"W": firstHeadword(t, keep)})
	if err != nil {
		t.Fatal(err)
	}
	if res.OrderGuaranteed {
		t.Fatal("Q5 should not guarantee order on a shredded store")
	}
}

func firstHeadword(t *testing.T, s Source) string {
	t.Helper()
	et := s.DB.Table("entry_tab")
	var hw string
	et.Scan(context.Background(), func(r relational.Rec) bool {
		hw = string(r.Col(et.Col("hw")))
		return false
	})
	if hw == "" {
		t.Fatal("no entries")
	}
	return hw
}

func TestQ3Aggregates(t *testing.T) {
	s := loadStore(t, core.DCSD, shredder.Options{})
	res, err := execute(context.Background(), s, core.Q3, nil)
	if err != nil || len(res.Items) != 1 {
		t.Fatalf("Q3 = %v, %v", res.Items, err)
	}
	// avg(number_of_pages) must be in the generator's clamp range.
	if res.Items[0] < "1" {
		t.Fatalf("implausible avg %q", res.Items[0])
	}

	md := loadStore(t, core.DCMD, shredder.Options{})
	res, err = execute(context.Background(), md, core.Q3, core.Params{"LO": "1995-01-01", "HI": "2003-12-30"})
	if err != nil || len(res.Items) != 1 {
		t.Fatalf("DCMD Q3 = %v, %v", res.Items, err)
	}
	// The full window must sum every order's total: compare against a
	// direct scan.
	ot := md.DB.Table("order_tab")
	n := 0
	ot.Scan(context.Background(), func(relational.Rec) bool { n++; return true })
	if n == 0 {
		t.Fatal("no orders")
	}
}

func TestTCMDGroupingSorted(t *testing.T) {
	s := loadStore(t, core.TCMD, shredder.Options{})
	res, err := execute(context.Background(), s, core.Q3, nil)
	if err != nil {
		t.Fatal(err)
	}
	var prev string
	for _, item := range res.Items {
		g := strings.TrimPrefix(item, "<group><genre>")
		g = g[:strings.Index(g, "<")]
		if prev != "" && g < prev {
			t.Fatalf("genres not sorted: %q after %q", g, prev)
		}
		prev = g
	}
}

// TestQ17NullHoldsNoText: a column that is NULL because its element is
// absent holds no text, so the sentinel's letters do not answer a text
// search for the word "null" — in any class, on any searched column.
func TestQ17NullHoldsNoText(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		class     core.Class
		name, xml string
		word      string // a word the document does hold
		want      string
	}{
		// No etym, def, a or loc: four searched columns are NULL.
		{core.TCSD, "dictionary.xml",
			`<dictionary><entry id="E1"><hw>alpha</hw><sense><qp><q><qt>beta gamma</qt></q></qp></sense></entry></dictionary>`,
			"beta", "<hw>alpha</hw>"},
		// No affiliation or bio, and a section with no heading.
		{core.TCMD, "article1.xml",
			`<article id="A1"><prolog><title>alpha</title><authors><author><name>beta gamma</name></author></authors></prolog>` +
				`<body><sec id="S1"><p>delta</p></sec></body></article>`,
			"gamma", "<title>alpha</title>"},
		// An order line with no comment.
		{core.DCMD, "order1.xml",
			`<order id="O1"><cc_xacts/><order_lines><order_line><item_id>I1</item_id></order_line>` +
				`<order_line><item_id>I2</item_id><comment>beta gamma</comment></order_line></order_lines></order>`,
			"beta", "O1"},
	} {
		s := shredder.NewStore(c.class, xmlschema.Shredded, relational.NewDB(pager.New(64)), shredder.Options{})
		doc := new(xmldom.Record)
		if err := xmldom.ParseRecord(doc, []byte(c.xml)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ShredDocument(c.name, doc); err != nil {
			t.Fatal(err)
		}
		for word, want := range map[string][]string{c.word: {c.want}, "null": nil, "NULL": nil} {
			res, err := execute(ctx, frozen(t, s), core.Q17, core.Params{"W2": word})
			if err != nil {
				t.Fatal(err)
			}
			if strings.Join(res.Items, "|") != strings.Join(want, "|") {
				t.Errorf("%v Q17 %q = %q, want %q", c.class, word, res.Items, want)
			}
		}
	}
}
