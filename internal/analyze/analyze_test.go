package analyze

import (
	"strings"
	"testing"

	"xbench/internal/core"
	"xbench/internal/gen"
)

func analyzeClass(t *testing.T, class core.Class) *Report {
	t.Helper()
	cfg := gen.Config{DictEntries: 40, Articles: 8, Items: 30, Orders: 40}
	db, err := cfg.Generate(class, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	return report(t, db)
}

// report analyzes every document of db.
func report(t *testing.T, db *core.Database) *Report {
	t.Helper()
	r := New()
	for _, d := range db.Docs {
		if err := r.AddDocument(d.Data); err != nil {
			t.Fatal(err)
		}
	}
	r.Finish()
	return r
}

func TestAnalyzeRecoversArticleStructure(t *testing.T) {
	r := analyzeClass(t, core.TCMD)
	if r.Documents != 8 {
		t.Fatalf("documents = %d", r.Documents)
	}
	sec := r.Elements["sec"]
	if sec == nil || !sec.Recursive {
		t.Fatal("sec not detected as recursive (Figure 2's back edge)")
	}
	if art := r.Elements["article"]; art == nil || art.Attrs["id"] != 8 {
		t.Fatalf("article/@id not counted: %+v", r.Elements["article"])
	}
	// genre is optional under prolog.
	cs := r.Children["prolog/genre"]
	if cs == nil || !cs.Optional {
		t.Fatal("prolog/genre should be optional")
	}
	// title is mandatory under prolog.
	if cs := r.Children["prolog/title"]; cs == nil || cs.Optional {
		t.Fatal("prolog/title should be mandatory")
	}
	if cs := r.Children["prolog/title"]; cs.Fitted == nil {
		t.Fatal("no distribution fitted")
	}
}

func TestAnalyzeDetectsMixedContent(t *testing.T) {
	r := analyzeClass(t, core.TCSD)
	qt := r.Elements["qt"]
	if qt == nil || qt.Mixed == 0 {
		t.Fatal("qt mixed content not detected")
	}
	entry := r.Elements["entry"]
	if entry == nil || entry.Count != 40 {
		t.Fatalf("entry count = %+v", entry)
	}
	// entry has 1..n senses, mandatory.
	cs := r.Children["entry/sense"]
	if cs == nil || cs.Optional {
		t.Fatal("entry/sense should be mandatory")
	}
	lo, _ := cs.Fitted.Bounds()
	if lo < 1 {
		t.Fatalf("sense occurrence lower bound %g < 1", lo)
	}
	// pr is optional.
	if cs := r.Children["entry/pr"]; cs == nil || !cs.Optional {
		t.Fatal("entry/pr should be optional")
	}
}

func TestAnalyzeFlatDocuments(t *testing.T) {
	r := analyzeClass(t, core.DCMD)
	// Flat translation: each column of a country row becomes a leaf
	// sub-element, and those leaves have no element children of their own.
	if cs := r.Children["country/co_name"]; cs == nil || cs.Optional {
		t.Fatal("country/co_name missing or optional")
	}
	for key := range r.Children {
		if strings.HasPrefix(key, "co_name/") || strings.HasPrefix(key, "co_currency/") {
			t.Fatalf("FT column leaf has children: %s", key)
		}
	}
	if r.Elements["order_line"] == nil {
		t.Fatal("order_line missing from inventory")
	}
	// order_line/comment is optional.
	if cs := r.Children["order_line/comment"]; cs == nil || !cs.Optional {
		t.Fatal("order_line/comment should be optional")
	}
}

func TestReportWriting(t *testing.T) {
	r := analyzeClass(t, core.DCSD)
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"element type(s)", "item", "@id", "catalog/item", "fit="} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestEmptyReport(t *testing.T) {
	r := New()
	r.Finish()
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Analyzed 0 document(s)") {
		t.Fatal("empty report header wrong")
	}
}
